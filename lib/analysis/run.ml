(** Measurement driver: run a benchmark under a configuration, validate
    its result, and hand back the statistics.  Runs are memoised — the
    experiments share many configurations — behind a mutex, so that
    {!run_many} can fan a configuration matrix out across the worker
    domains of {!Pool} while renderers look measurements up from the
    warmed store. *)

module Metrics = Tagsim_metrics.Metrics
module Stats = Tagsim_sim.Stats
module Machine = Tagsim_sim.Machine
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sched = Tagsim_asm.Sched
module Program = Tagsim_compiler.Program
module Registry = Tagsim_programs.Registry
module L = Tagsim_runtime.Layout

exception Wrong_result of string

type measurement = {
  entry : Registry.entry;
  scheme : Scheme.t;
  support : Support.t;
  stats : Stats.t;
  gc_collections : int;
  gc_bytes_copied : int;
  meta : Program.meta;
}

(* A point of the experiment matrix.  The engine is an explicit field
   (not a global): concurrent planners with different engines cannot
   race each other.  All engines produce bit-identical statistics (the
   engine suite enforces it), so [c_engine] only selects the speed of
   reproduction and is excluded from {!matrix_key}. *)
type config = {
  c_sched : Sched.config;
  c_opt : Program.opt;
  c_scheme : Scheme.t;
  c_support : Support.t;
  c_entry : Registry.entry;
  c_engine : Machine.engine;
}

let cache : (string, measurement) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()

let clear_cache () =
  Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache)

(* Shared compiler front ends: parse/expand/prune is independent of the
   scheme, support and scheduler configuration, so each distinct source
   is analyzed once per process and the result shared across the whole
   configuration matrix (frontends are immutable).  Keyed by source
   digest, so entries that alias one source (deduce/dedgc) share one
   front end.  The analysis runs under the lock: it is cheap relative
   to one simulation and runs once per program. *)
let frontends : (string, Program.frontend) Hashtbl.t = Hashtbl.create 16
let frontend_mutex = Mutex.create ()

let frontend_of (entry : Registry.entry) =
  let k = Digest.string entry.Registry.source in
  Mutex.protect frontend_mutex (fun () ->
      match Hashtbl.find_opt frontends k with
      | Some fe -> fe
      | None ->
          let fe = Program.analyze entry.Registry.source in
          Hashtbl.replace frontends k fe;
          fe)

(* Simulations performed (memo and store misses), and the wall time of
   their compile and simulate phases. *)
let simulation_count = Metrics.counter "run.simulations"
let compile_s = Metrics.counter "run.compile_s"
let simulate_s = Metrics.counter "run.simulate_s"
let simulations () = Metrics.get simulation_count

let sched_key (s : Sched.config) =
  Printf.sprintf "%b%b%b" s.Sched.hoist s.Sched.fill_unlikely
    s.Sched.squash_likely

(* Engine-agnostic identity of a configuration: what the measurement
   means, not how fast it was obtained. *)
let matrix_key c =
  String.concat "/"
    [
      c.c_entry.Registry.name;
      c.c_scheme.Scheme.name;
      Support.describe c.c_support;
      sched_key c.c_sched;
      Tagsim_compiler.Tir.opt_token c.c_opt;
    ]

(* Memo key: engine-qualified, so engine-differential tests can hold
   measurements from several engines at once. *)
let config_key c =
  (match c.c_engine with
  | `Reference -> "ref"
  | `Traced -> "tra")
  ^ "/" ^ matrix_key c

(* The persistent-store key of a configuration: engine-agnostic, like
   [matrix_key], but content-addressed (see {!Cache.key}). *)
let cache_key c =
  Cache.key ~sched:c.c_sched ~opt:c.c_opt ~scheme:c.c_scheme
    ~support:c.c_support c.c_entry

let memo_find k = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache k)
let memo_add k m = Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache k m)

(* Consult the caches, L1 (in-process memo) then L2 (persistent store),
   without computing anything.  An L2 hit is promoted into the memo
   under the engine-qualified key, so later lookups under the same
   engine are lock-only. *)
let lookup_cached c =
  let k = config_key c in
  match memo_find k with
  | Some m -> Some m
  | None -> (
      match Cache.load (cache_key c) with
      | None -> None
      | Some p ->
          let m =
            {
              entry = c.c_entry;
              scheme = c.c_scheme;
              support = c.c_support;
              stats = p.Cache.p_stats;
              gc_collections = p.Cache.p_gc_collections;
              gc_bytes_copied = p.Cache.p_gc_bytes_copied;
              meta = p.Cache.p_meta;
            }
          in
          memo_add k m;
          Some m)

(* The computation is deliberately outside the cache lock: concurrent
   workers may duplicate a measurement (it is deterministic, so the
   last [replace] wins harmlessly), but they never serialise on the
   simulator.  [run_many] de-duplicates its matrix up front, so in
   practice each configuration is simulated once. *)
let compute_config c =
  Metrics.add simulation_count 1;
  let entry = c.c_entry and scheme = c.c_scheme and support = c.c_support in
  let program =
    Metrics.time compile_s (fun () ->
        Program.compile_frontend ~opt:c.c_opt ~sched:c.c_sched
          ~sizes:entry.Registry.sizes ~scheme ~support (frontend_of entry))
  in
  let result =
    Metrics.time simulate_s (fun () ->
        Program.run ~engine:c.c_engine program)
  in
  (match result.Program.abort with
  | Some msg ->
      raise
        (Wrong_result
           (Printf.sprintf "%s [%s]: aborted: %s" entry.Registry.name
              scheme.Scheme.name msg))
  | None -> ());
  (match Stats.broken_law result.Program.stats with
  | Some law ->
      raise
        (Wrong_result
           (Printf.sprintf "%s [%s/%s]: broken law %s" entry.Registry.name
              scheme.Scheme.name (Support.describe support) law))
  | None -> ());
  let got = Program.hval_to_string (Option.get result.Program.value) in
  if got <> entry.Registry.expected then
    raise
      (Wrong_result
         (Printf.sprintf "%s [%s/%s]: got %s, expected %s"
            entry.Registry.name scheme.Scheme.name (Support.describe support)
            got entry.Registry.expected));
  let m =
    {
      entry;
      scheme;
      support;
      stats = result.Program.stats;
      gc_collections = result.Program.gc_collections;
      gc_bytes_copied = result.Program.gc_bytes_copied;
      meta = program.Program.meta;
    }
  in
  Cache.store (cache_key c)
    {
      Cache.p_stats = m.stats;
      p_gc_collections = m.gc_collections;
      p_gc_bytes_copied = m.gc_bytes_copied;
      p_meta = m.meta;
    };
  memo_add (config_key c) m;
  m

let run_config c =
  match lookup_cached c with Some m -> m | None -> compute_config c

let config ?(sched = Sched.default) ?(opt = `None) ?(engine = `Traced) ~scheme
    ~support entry =
  {
    c_sched = sched;
    c_opt = opt;
    c_scheme = scheme;
    c_support = support;
    c_entry = entry;
    c_engine = engine;
  }

let run ?sched ?opt ?engine ~scheme ~support (entry : Registry.entry) =
  run_config (config ?sched ?opt ?engine ~scheme ~support entry)

(** Fan a configuration matrix out across the pool's worker domains and
    return the measurements in input order.  Duplicated configurations
    are simulated once: the pool maps over the distinct configurations
    and the results are collected through a keyed map, with no second
    simulation pass (the memo cache still gets warmed for later
    callers).  The caches are consulted on the calling domain {e before}
    dispatch — only genuinely missing configurations reach the pool, so
    a fully warm run spawns no workers and simulates nothing. *)
let run_many ?jobs (configs : config list) =
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun c ->
        let k = config_key c in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      configs
  in
  let by_key = Hashtbl.create 64 in
  let missing =
    List.filter
      (fun c ->
        match lookup_cached c with
        | Some m ->
            Hashtbl.replace by_key (config_key c) m;
            false
        | None -> true)
      distinct
  in
  (* Longest-job-first dispatch: with workers pulling off a shared
     counter, the matrix's makespan is tail-bound by whatever is
     scheduled last, so the missing configurations go heaviest first,
     weighted by source size.  [measured] comes back in the same
     (reordered) list order, so the keyed collection below is
     unaffected. *)
  let missing =
    Pool.longest_first
      ~weight:(fun c -> String.length c.c_entry.Registry.source)
      missing
  in
  let measured = Pool.map ?jobs compute_config missing in
  List.iter2
    (fun c m -> Hashtbl.replace by_key (config_key c) m)
    missing measured;
  List.map (fun c -> Hashtbl.find by_key (config_key c)) configs

let all_entries () = Registry.all ()

(* Percentage helpers. *)
let pct part whole = 100.0 *. float_of_int part /. float_of_int whole

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  let m = mean l in
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      sqrt
        (List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 l
        /. float_of_int (List.length l))
