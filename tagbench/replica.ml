(* Traced replays of the two library paths the workloads exercise, built
   only from public functions, with a span around each call into a
   layer:

   - [plan] replays [Planner.plan] over [Run.run_many]: the measurement
     store lookup, then per missing configuration the steps of
     [Run.compute_config] (front end, back end, load, run, plan flush,
     result check, store), then the render;
   - [fuzz] replays the fuzz campaign over [Cross.check]: the
     generator, then per program the compiles, engine runs and host
     oracle comparisons of the smoke matrix.

   Both must reproduce the untraced outputs exactly (the rendered JSON,
   the verdict sequence); the caller checks that. *)

open Tagsim
module Run = Analysis.Run
module Spec = Analysis.Spec
module Pool = Analysis.Pool
module Cache = Analysis.Cache
module Cross = Fuzz.Cross
module Registry = Benchmarks

(* --- planner fan-out --- *)

type plan_result = { json : string; simulations : int; insns : int }

let retired m = Stats.executed_insns (Machine.stats m)

(* [Program.run], split at the layer boundaries: load (machine creation,
   engine attach, plan warm start), execution, plan flush. *)
let run_program ?fuel ~req ~engine ~insns (p : Program.t) =
  let m, _ =
    Span.record ~req "sim.load" (fun () -> Program.load ?fuel ~engine p)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add insns (retired m)))
      (fun () -> Span.record ~req "sim.exec" (fun () -> Machine.run m))
  in
  (match m.Machine.tstate with
  | Some ts when ts.Machine.ts_dirty && Plan.enabled () ->
      Span.record ~req "plan.flush" (fun () ->
          Plan.store (Program.plan_key p) (List.rev ts.Machine.ts_plans));
      ts.Machine.ts_dirty <- false
  | _ -> ());
  let peek lbl = Machine.peek m (Image.data_address p.Program.image lbl) in
  let value, abort =
    match outcome with
    | Machine.Halted w -> (Some (Program.decode p m w), None)
    | Machine.Aborted code -> (None, Some (Program.abort_message code))
  in
  (value, abort, Machine.stats m, peek Layout.l_gc_count, peek Layout.l_gc_copied)

let plan ~jobs ~artifacts ~entries =
  let union =
    List.concat_map (fun a -> a.Spec.a_configs entries) artifacts
    |> List.map (fun c -> { c with Run.c_engine = `Traced })
  in
  let seen = Hashtbl.create 512 in
  let distinct =
    List.filter
      (fun c ->
        let k = Run.config_key c in
        (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
      union
  in
  let by_key = Hashtbl.create 512 in
  let mutex = Mutex.create () in
  let store c m = Mutex.protect mutex (fun () -> Hashtbl.replace by_key (Run.config_key c) m) in
  let measurement (c : Run.config) stats gc_collections gc_bytes_copied meta =
    {
      Run.entry = c.Run.c_entry;
      scheme = c.Run.c_scheme;
      support = c.Run.c_support;
      stats;
      gc_collections;
      gc_bytes_copied;
      meta;
    }
  in
  let missing =
    List.filter
      (fun c ->
        let req = Run.matrix_key c in
        match Span.record ~req "cache.load" (fun () -> Cache.load (Run.cache_key c)) with
        | Some p ->
            store c
              (measurement c p.Cache.p_stats p.Cache.p_gc_collections
                 p.Cache.p_gc_bytes_copied p.Cache.p_meta);
            false
        | None -> true)
      distinct
  in
  (* [Run.run_many]'s longest-first order.  Every workload starts without
     measurement entries, so no program has a known cycle count and the
     weight is the source size. *)
  let missing =
    match missing with
    | [] | [ _ ] -> missing
    | _ ->
        Pool.longest_first
          ~weight:(fun (c : Run.config) -> String.length c.Run.c_entry.Registry.source)
          missing
  in
  let frontends = Hashtbl.create 16 and fe_mutex = Mutex.create () in
  let frontend (e : Registry.entry) =
    let k = Digest.string e.Registry.source in
    Mutex.protect fe_mutex (fun () ->
        match Hashtbl.find_opt frontends k with
        | Some fe -> fe
        | None ->
            let fe =
              Span.record ~req:e.Registry.name "lisp" (fun () ->
                  Program.analyze e.Registry.source)
            in
            Hashtbl.replace frontends k fe;
            fe)
  in
  let insns = Atomic.make 0 in
  let compute (c : Run.config) =
    let req = Run.matrix_key c and entry = c.Run.c_entry in
    let fe = frontend entry in
    let p =
      Span.record ~req "compiler" (fun () ->
          Program.compile_frontend ~opt:c.Run.c_opt ~sched:c.Run.c_sched
            ~sizes:entry.Registry.sizes ~scheme:c.Run.c_scheme
            ~support:c.Run.c_support fe)
    in
    let value, abort, stats, gc_n, gc_bytes =
      run_program ~req ~engine:c.Run.c_engine ~insns p
    in
    (match abort with
    | Some msg -> raise (Run.Wrong_result (req ^ ": aborted: " ^ msg))
    | None -> ());
    let got = Program.hval_to_string (Option.get value) in
    if got <> entry.Registry.expected then
      raise
        (Run.Wrong_result
           (Printf.sprintf "%s: got %s, expected %s" req got entry.Registry.expected));
    let m = measurement c stats gc_n gc_bytes p.Program.meta in
    Span.record ~req "cache.store" (fun () ->
        Cache.store (Run.cache_key c)
          {
            Cache.p_stats = stats;
            p_gc_collections = gc_n;
            p_gc_bytes_copied = gc_bytes;
            p_meta = m.Run.meta;
          });
    store c m
  in
  ignore (Pool.map ~jobs compute missing);
  let lookup_store = Hashtbl.create 512 in
  List.iter
    (fun c ->
      Hashtbl.replace lookup_store (Run.matrix_key c)
        (Hashtbl.find by_key (Run.config_key c)))
    union;
  let lookup c = Hashtbl.find lookup_store (Run.matrix_key c) in
  let json =
    Span.record "planner.render" (fun () ->
        Analysis.Planner.json_string
          (List.map (fun a -> a.Spec.a_render entries lookup) artifacts))
  in
  { json; simulations = List.length missing; insns = Atomic.get insns }

(* --- fuzz campaign --- *)

(* How [Cross.check] words a verdict for the comparison between the
   library run and this replica: the kind, and for a divergence the
   cell that diverged (the detail text is not reproduced). *)
let verdict_string = function
  | Cross.Agree -> "agree"
  | Cross.Rejected -> "rejected"
  | Cross.Diverge d ->
      Printf.sprintf "diverge %s/%s" d.Cross.d_scheme.Scheme.name
        (Support.describe d.Cross.d_support)

(* [Cross.compile]: the front end and back end as separate layers. *)
let compile ~req ~backend ~opt ~scheme ~support source =
  match
    let fe = Span.record ~req "lisp" (fun () -> Program.analyze source) in
    Span.record ~req "compiler" (fun () ->
        Program.compile_frontend ~backend ~opt ~sizes:Fuzz.Gen.sizes ~scheme
          ~support fe)
  with
  | p -> Ok p
  | exception
      ( Program.Error _ | Codegen.Error _ | Expand.Error _ | Sexp.Parse_error _
      | Invalid_argument _ ) ->
      Error ()

type run = { outcome : Cross.outcome; stats : Stats.t option; gc : (int * int) option }

(* [Cross.run_engine]. *)
let run_engine ~req ~fuel ~engine ~insns p : run =
  match run_program ~fuel ~req ~engine ~insns p with
  | _, Some msg, stats, n, b -> { outcome = Cross.Abort msg; stats = Some stats; gc = Some (n, b) }
  | Some v, None, stats, n, b ->
      { outcome = Cross.Value (Program.hval_to_string v); stats = Some stats; gc = Some (n, b) }
  | None, None, _, _, _ -> { outcome = Cross.Abort "no value"; stats = None; gc = None }
  | exception Machine.Out_of_fuel -> { outcome = Cross.Timeout; stats = None; gc = None }
  | exception Machine.Machine_error m -> { outcome = Cross.Fault m; stats = None; gc = None }
  | exception Invalid_argument m -> { outcome = Cross.Fault m; stats = None; gc = None }

(* [Cross]'s outcome equality: compile errors compare by acceptance. *)
let same (a : Cross.outcome) (b : Cross.outcome) =
  match (a, b) with
  | Value x, Value y | Abort x, Abort y | Fault x, Fault y -> x = y
  | Timeout, Timeout | Compile_error _, Compile_error _ -> true
  | _ -> false

(* [Cross.check_cell]: [(diverged, ran)]. *)
let check_cell ~req ~fuel ~insns (m : Cross.matrix) ~scheme ~support source =
  let diverged = ref false and ran = ref false and levels = ref [] in
  List.iter
    (fun (opt : Program.opt) ->
      if not !diverged then begin
        let backends =
          match opt with
          | `None -> m.Cross.m_backends
          | `Checks -> List.filter (( = ) `Incremental) m.Cross.m_backends
        in
        let compiled =
          List.map (fun backend -> compile ~req ~backend ~opt ~scheme ~support source) backends
        in
        (match compiled with
        | Ok p0 :: rest ->
            List.iter
              (function
                | Ok p -> if not (Image.equal p0.Program.image p.Program.image) then diverged := true
                | Error () -> diverged := true)
              rest
        | Error () :: rest -> if List.exists Result.is_ok rest then diverged := true
        | [] -> ());
        match List.find_map Result.to_option compiled with
        | None -> levels := (opt, Cross.Compile_error "") :: !levels
        | Some p -> (
            ran := true;
            let runs =
              List.map (fun engine -> run_engine ~req ~fuel ~engine ~insns p) m.Cross.m_engines
            in
            match runs with
            | r0 :: rest ->
                levels := (opt, r0.outcome) :: !levels;
                List.iter
                  (fun r ->
                    let stats_differ =
                      match (r0.stats, r.stats) with
                      | Some s0, Some s -> not (Stats.equal s0 s)
                      | _ -> false
                    in
                    let gc_differ =
                      match (r0.gc, r.gc) with Some g0, Some g -> g0 <> g | _ -> false
                    in
                    if (not (same r0.outcome r.outcome)) || stats_differ || gc_differ then
                      diverged := true)
                  rest
            | [] -> ())
      end)
    m.Cross.m_opts;
  if (not !diverged) && support.Support.runtime_checking then begin
    (match (List.assoc_opt `None !levels, List.assoc_opt `Checks !levels) with
    | Some a, Some b -> (
        match (a, b) with
        | Cross.(Timeout, _ | _, Timeout | Fault _, _ | _, Fault _) -> ()
        | _ -> if not (same a b) then diverged := true)
    | _ -> ());
    if not !diverged then
      match List.assoc_opt `None !levels with
      | Some ((Cross.Value _ | Cross.Abort _) as machine) -> (
          match Span.record ~req "oracle" (fun () -> Oracle.run ~scheme source) with
          | Oracle.Value v ->
              if not (same machine (Cross.Value (Oracle.to_string v))) then diverged := true
          | Oracle.Error "out of fuel" -> ()
          | Oracle.Error e -> if not (same machine (Cross.Abort e)) then diverged := true
          | exception (Expand.Error _ | Sexp.Parse_error _) -> ())
      | _ -> ()
  end;
  (!diverged, !ran)

(* [Cross.check] with its default fuel. *)
let check ~req ~insns (m : Cross.matrix) source =
  let fuel = 40_000_000 in
  let rec cells any_ran = function
    | [] -> if any_ran then "agree" else "rejected"
    | (scheme, support) :: rest -> (
        match check_cell ~req ~fuel ~insns m ~scheme ~support source with
        | true, _ ->
            Printf.sprintf "diverge %s/%s" scheme.Scheme.name (Support.describe support)
        | false, ran -> cells (any_ran || ran) rest)
  in
  cells false m.Cross.m_pairs

type fuzz_result = { verdicts : string list; check_s : float list; fuzz_insns : int }

let fuzz ~matrix ~seed ~count ~max_size =
  let rng = Fuzz.Rng.create seed and insns = Atomic.make 0 in
  let verdicts = ref [] and check_s = ref [] in
  for index = 0 to count - 1 do
    let req = string_of_int index in
    let source =
      Span.record ~req "gen" (fun () ->
          Fuzz.Gen.render (Fuzz.Gen.program rng ~max_size))
    in
    let t0 = Unix.gettimeofday () in
    verdicts := check ~req ~insns matrix source :: !verdicts;
    check_s := (Unix.gettimeofday () -. t0) :: !check_s
  done;
  { verdicts = List.rev !verdicts; check_s = !check_s; fuzz_insns = Atomic.get insns }
