(* The benchmark harness.

   Phase 1 regenerates every table and figure of the paper and prints
   them in the paper's layout (this is the reproduction output that
   EXPERIMENTS.md records).

   Phase 2 runs one Bechamel benchmark per table/figure: each measures
   the wall-clock cost of the kernel that regenerates that artifact (a
   representative slice, with the measurement cache out of the way),
   i.e. the simulator-plus-compiler throughput of this implementation. *)

open Bechamel
open Toolkit

(* --- Phase 1: regenerate the paper. --- *)

let print_all () =
  Fmt.pr "================================================================@.";
  Fmt.pr "Reproduction: Steenkiste & Hennessy, \"Tags and Type Checking in@.";
  Fmt.pr "LISP: Hardware and Software Approaches\" (ASPLOS 1987)@.";
  Fmt.pr "================================================================@.@.";
  (* One planner execution: the union of every artifact's matrix,
     deduplicated and fanned out once over the pool. *)
  let module Spec = Tagsim.Analysis.Spec in
  let module Planner = Tagsim.Analysis.Planner in
  List.iter
    (fun r ->
      if r.Spec.r_name = "ablations" then Fmt.pr "@.%s@." r.Spec.r_text
      else Fmt.pr "%s@." r.Spec.r_text)
    (Planner.plan Planner.artifacts)

(* --- Phase 2: Bechamel kernels. --- *)

(* One uncached compile+simulate of a benchmark under a configuration:
   the unit of work every experiment is built from. *)
let simulate ?(scheme = Tagsim.Scheme.high5)
    ?(support = Tagsim.Support.software) name =
  let entry = Tagsim.Benchmarks.find name in
  let program =
    Tagsim.Program.compile ~scheme ~support
      ~sizes:entry.Tagsim.Benchmarks.sizes entry.Tagsim.Benchmarks.source
  in
  let result = Tagsim.Program.run program in
  assert (result.Tagsim.Program.abort = None)

let chk = Tagsim.Support.with_checking Tagsim.Support.software

(* Each test is the kernel of the corresponding experiment, on a
   representative program (the full experiments iterate these kernels
   over all ten programs and more configurations). *)
let tests =
  [
    Test.make ~name:"table1-checking-delta-deduce"
      (Staged.stage (fun () ->
           simulate "deduce";
           simulate ~support:chk "deduce"));
    Test.make ~name:"figure1-tag-profile-boyer"
      (Staged.stage (fun () -> simulate ~support:chk "boyer"));
    Test.make ~name:"figure2-mask-elimination-comp"
      (Staged.stage (fun () ->
           simulate "comp";
           simulate ~support:Tagsim.Support.row1_hw "comp"));
    Test.make ~name:"table2-row7-frl"
      (Staged.stage (fun () ->
           simulate
             ~support:(Tagsim.Support.with_checking Tagsim.Support.row7)
             "frl"));
    Test.make ~name:"table3-compile-opt"
      (Staged.stage (fun () ->
           let entry = Tagsim.Benchmarks.find "opt" in
           ignore
             (Tagsim.Program.compile ~scheme:Tagsim.Scheme.high5
                ~support:Tagsim.Support.software
                entry.Tagsim.Benchmarks.source)));
    Test.make ~name:"garith-high6-rat"
      (Staged.stage (fun () ->
           simulate ~scheme:Tagsim.Scheme.high6 ~support:chk "rat"));
    Test.make ~name:"ablation-dedgc-pressure"
      (Staged.stage (fun () -> simulate "dedgc"));
  ]

(* OLS ns/run estimates for one test, as (name, ns option) pairs. *)
let analyze_one test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let tbl = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name result acc ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some [ t ] -> Some t
        | _ -> None
      in
      (name, ns) :: acc)
    tbl []
  (* [Analyze.all] hands back a hash table; sort so the report's row
     order is stable across processes. *)
  |> List.sort compare

let benchmark () =
  Fmt.pr "@.Bechamel kernels (wall-clock per regeneration kernel):@.";
  List.iter
    (fun test ->
      List.iter
        (fun (name, ns) ->
          match ns with
          | Some t -> Fmt.pr "  %-44s %10.2f ms/run@." name (t /. 1e6)
          | None -> Fmt.pr "  %-44s (no estimate)@." name)
        (analyze_one test))
    tests

(* --- Phase 3: engine throughput, reference vs predecoded vs fused vs
   traced. ---

   Every registry program (full checking: software type checks,
   generic-arithmetic traps and the GC), pre-compiled once and
   simulated under each engine.  All engines produce bit-identical
   statistics (test/suite_engines.ml), so any wall-clock gap is pure
   dispatch and accounting overhead.  Reported as simulated MIPS —
   retired simulated instructions per wall-clock second — and recorded
   in BENCH_engines.json alongside the fused/predecoded and
   traced/fused speedups. *)

let engine_programs =
  List.map
    (fun (e : Tagsim.Benchmarks.entry) -> e.Tagsim.Benchmarks.name)
    (Tagsim.Benchmarks.all ())

let engines =
  List.map
    (fun e -> (e, Tagsim.Machine.engine_name e))
    Tagsim.Machine.engine_all

let prepare_program name =
  let entry = Tagsim.Benchmarks.find name in
  let program =
    Tagsim.Program.compile ~scheme:Tagsim.Scheme.high5 ~support:chk
      ~sizes:entry.Tagsim.Benchmarks.sizes entry.Tagsim.Benchmarks.source
  in
  let result = Tagsim.Program.run program in
  assert (result.Tagsim.Program.abort = None);
  (program, Tagsim.Stats.executed_insns result.Tagsim.Program.stats)

(* One OLS ns/run estimate for one engine on one pre-compiled
   program. *)
let estimate_engine program engine ename =
  let test =
    Test.make ~name:ename
      (Staged.stage (fun () -> ignore (Tagsim.Program.run ~engine program)))
  in
  match analyze_one test with (_, ns) :: _ -> ns | [] -> None

type engine_run = { e_name : string; ns : float; mips : float }

let engine_benchmark () =
  let rows =
    List.map
      (fun pname ->
        let program, insns = prepare_program pname in
        (* Best of three independent OLS estimates per engine, taken in
           interleaved rounds (every engine once per round) so slow
           drift — thermal, frequency scaling, background load — hits
           every engine alike instead of whichever happens to be
           measured last. *)
        let best = Hashtbl.create 8 in
        for _round = 1 to 3 do
          List.iter
            (fun (engine, ename) ->
              match estimate_engine program engine ename with
              | Some ns -> (
                  match Hashtbl.find_opt best ename with
                  | Some b when b <= ns -> ()
                  | _ -> Hashtbl.replace best ename ns)
              | None -> ())
            engines
        done;
        let runs =
          List.filter_map
            (fun (_, ename) ->
              Option.map
                (fun ns ->
                  {
                    e_name = ename;
                    ns;
                    mips = float_of_int insns *. 1e3 /. ns;
                  })
                (Hashtbl.find_opt best ename))
            engines
        in
        (pname, insns, runs))
      engine_programs
  in
  List.iter
    (fun (pname, _, runs) ->
      Fmt.pr "@.Engine throughput (%s, high5, full checking):@." pname;
      List.iter
        (fun { e_name; ns; mips } ->
          Fmt.pr "  %-12s %10.2f ms/run  %8.2f simulated MIPS@." e_name
            (ns /. 1e6) mips)
        runs)
    rows;
  let mips_of runs name =
    List.find_opt (fun r -> r.e_name = name) runs
    |> Option.map (fun r -> r.mips)
  in
  let oc = open_out "BENCH_engines.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"unit\": \"simulated MIPS (retired simulated instructions \
       per wall-clock second)\",\n";
  out "  \"benchmarks\": [\n";
  List.iteri
    (fun i (pname, insns, runs) ->
      out "    {\n      \"program\": %S,\n      \"simulated_insns\": %d,\n"
        pname insns;
      out "      \"engines\": [\n";
      List.iteri
        (fun j { e_name; ns; mips } ->
          out
            "        { \"engine\": %S, \"ms_per_run\": %.3f, \
             \"simulated_mips\": %.2f }%s\n"
            e_name (ns /. 1e6) mips
            (if j = List.length runs - 1 then "" else ","))
        runs;
      out "      ]";
      (match (mips_of runs "fused", mips_of runs "predecoded") with
      | Some f, Some p when p > 0.0 ->
          out ",\n      \"fused_over_predecoded\": %.2f" (f /. p)
      | _ -> ());
      (match (mips_of runs "traced", mips_of runs "fused") with
      | Some t, Some f when f > 0.0 ->
          out ",\n      \"traced_over_fused\": %.2f" (t /. f)
      | _ -> ());
      out "\n    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Fmt.pr "@.Per-engine throughput written to BENCH_engines.json@."

(* --- Phase 4: cold vs warm persistent measurement cache. ---

   End-to-end wall-clock of the full planner fan-out (every artifact,
   every program — the work of [tagsim experiments]) with the
   content-addressed store cold (wiped on disk, memo and shared front
   ends dropped) versus warm (store populated, in-process state dropped
   the same way).  Best of three per leg; the warm legs also assert that
   the store alone reproduces the plan with zero simulations.  Recorded
   in BENCH_cache.json. *)

module Cache = Tagsim.Analysis.Cache
module Run = Tagsim.Analysis.Run

let time_plan () =
  let module Planner = Tagsim.Analysis.Planner in
  let t0 = Unix.gettimeofday () in
  ignore (Planner.plan Planner.artifacts);
  Unix.gettimeofday () -. t0

let best_of n leg = List.fold_left min infinity (List.init n (fun _ -> leg ()))

let cache_benchmark () =
  let module Planner = Tagsim.Analysis.Planner in
  let module Spec = Tagsim.Analysis.Spec in
  let was_enabled = Cache.enabled () in
  Cache.set_enabled true;
  (* Size of the deduplicated configuration union, for the report. *)
  let cells =
    let seen = Hashtbl.create 512 in
    List.iter
      (fun (a : Spec.artifact) ->
        List.iter
          (fun c -> Hashtbl.replace seen (Run.matrix_key c) ())
          (a.Spec.a_configs (Tagsim.Benchmarks.all ())))
      Planner.artifacts;
    Hashtbl.length seen
  in
  let runs = 3 in
  (* Both legs also drop the incremental backend's object memo: the
     cold leg must pay full compiles, and the warm leg's point is that
     the measurement store alone — not memoised objects — reproduces
     the plan. *)
  let cold_leg () =
    Cache.wipe ();
    Run.clear_cache ();
    Run.reset_frontends ();
    Tagsim.Objcache.clear_memo ();
    time_plan ()
  in
  let warm_leg () =
    Run.clear_cache ();
    Run.reset_frontends ();
    Tagsim.Objcache.clear_memo ();
    time_plan ()
  in
  let cold = best_of runs cold_leg in
  (* The last cold leg left the store fully populated. *)
  Run.reset_simulations ();
  let warm = best_of runs warm_leg in
  let warm_sims = Run.simulations () in
  Cache.set_enabled was_enabled;
  Fmt.pr "@.Measurement cache, full experiment plan (%d configurations, \
          best of %d):@." cells runs;
  Fmt.pr "  cold (wiped store)   %8.3f s@." cold;
  Fmt.pr "  warm (store only)    %8.3f s   (%.0fx; %d simulations)@." warm
    (cold /. warm) warm_sims;
  let oc = open_out "BENCH_cache.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"full planner fan-out (the work of 'tagsim \
       experiments'), persistent measurement cache cold vs warm\",\n";
  out "  \"configurations\": %d,\n" cells;
  out "  \"jobs\": %d,\n" !Tagsim.Analysis.Pool.default_jobs;
  out "  \"runs_per_leg\": %d,\n" runs;
  out "  \"cold_seconds_best\": %.3f,\n" cold;
  out "  \"warm_seconds_best\": %.3f,\n" warm;
  out "  \"warm_speedup\": %.1f,\n" (cold /. warm);
  out "  \"warm_simulations\": %d\n" warm_sims;
  out "}\n";
  close_out oc;
  Fmt.pr "Cold/warm cache timings written to BENCH_cache.json@."

(* --- Phase 5: backend throughput, monolithic vs incremental. ---

   Pure compilation (no simulation) of the full Table 2 matrix — the
   low-tag software cell plus every named high5 support row, each with
   and without full checking, for all ten programs — under the
   monolithic backend versus the incremental one in two states: cold
   (object memo dropped) and warm memo (the steady state of a matrix
   run, where every unit compiles once and every later cell links
   memoised objects).  Front ends are shared, as in the real pipeline,
   so the legs time the backend alone.  Best of three per leg; recorded
   in BENCH_compile.json. *)

module Objcache = Tagsim.Objcache

let compile_matrix () =
  (* The Table 2 cells (see Analysis.Table2): low-tag software plus
     every named support row on high5, each with and without full
     run-time checking. *)
  let cells =
    (Tagsim.Scheme.low2, Tagsim.Support.software)
    :: List.map
         (fun (_, s) -> (Tagsim.Scheme.high5, s))
         Tagsim.Support.all_named
  in
  List.concat_map
    (fun entry ->
      let fe = Tagsim.Program.analyze entry.Tagsim.Benchmarks.source in
      List.concat_map
        (fun (scheme, s) ->
          [ (fe, scheme, s); (fe, scheme, Tagsim.Support.with_checking s) ])
        cells)
    (Tagsim.Benchmarks.all ())

let compile_all ?(opt = `None) backend configs =
  List.iter
    (fun (fe, scheme, support) ->
      ignore
        (Tagsim.Program.compile_frontend ~backend ~opt ~scheme ~support fe))
    configs

let time_leg leg =
  let t0 = Unix.gettimeofday () in
  leg ();
  Unix.gettimeofday () -. t0

let compile_benchmark () =
  let configs = compile_matrix () in
  let n = List.length configs in
  let runs = 3 in
  let mono =
    best_of runs (fun () -> time_leg (fun () -> compile_all `Monolithic configs))
  in
  let inc_cold =
    best_of runs (fun () ->
        Objcache.clear_memo ();
        time_leg (fun () -> compile_all `Incremental configs))
  in
  Objcache.reset_counters ();
  let inc_warm =
    best_of runs (fun () -> time_leg (fun () -> compile_all `Incremental configs))
  in
  let hits, misses, _ = Objcache.counters () in
  (* One instrumented cold leg per optimization level: the backend's
     own phase accumulator breaks the wall clock into
     lower/opt/select/schedule/assemble/link, so the pipeline split's
     cost is visible (and the optimizer's own cost is isolated). *)
  let instrumented_cold opt =
    Objcache.clear_memo ();
    Tagsim.Bphase.reset ();
    let total = time_leg (fun () -> compile_all ~opt `Incremental configs) in
    (total, Tagsim.Bphase.totals ())
  in
  let cold_none, ph_none = instrumented_cold `None in
  let cold_checks, ph_checks = instrumented_cold `Checks in
  Fmt.pr "@.Backend, full Table 2 compile matrix (%d configurations, best \
          of %d):@." n runs;
  Fmt.pr "  monolithic                %8.3f s@." mono;
  Fmt.pr "  incremental, cold         %8.3f s   (memo dropped)@." inc_cold;
  Fmt.pr "  incremental, warm memo    %8.3f s   (%.1fx vs monolithic; %d \
          hits, %d misses)@."
    inc_warm (mono /. inc_warm) hits misses;
  let pp_phases what total (p : Tagsim.Bphase.totals) =
    Fmt.pr
      "  %-25s %8.3f s   (lower %.3f  opt %.3f  select %.3f  schedule %.3f  \
       assemble %.3f  link %.3f)@."
      what total p.Tagsim.Bphase.lower_s p.Tagsim.Bphase.opt_s
      p.Tagsim.Bphase.select_s p.Tagsim.Bphase.schedule_s
      p.Tagsim.Bphase.assemble_s p.Tagsim.Bphase.link_s
  in
  pp_phases "cold phases, opt none" cold_none ph_none;
  pp_phases "cold phases, opt checks" cold_checks ph_checks;
  let oc = open_out "BENCH_compile.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"backend wall-clock over the full Table 2 compile \
       matrix, monolithic vs incremental (relocatable objects + linker + \
       in-process object memo)\",\n";
  out "  \"configurations\": %d,\n" n;
  out "  \"runs_per_leg\": %d,\n" runs;
  out "  \"monolithic_seconds_best\": %.3f,\n" mono;
  out "  \"incremental_cold_seconds_best\": %.3f,\n" inc_cold;
  out "  \"incremental_warm_memo_seconds_best\": %.3f,\n" inc_warm;
  out "  \"warm_memo_hits\": %d,\n" hits;
  out "  \"warm_memo_misses\": %d,\n" misses;
  out "  \"warm_speedup_vs_monolithic\": %.1f,\n" (mono /. inc_warm);
  let out_phases key total (p : Tagsim.Bphase.totals) term =
    out "  %S: {\n" key;
    out "    \"total_seconds\": %.3f,\n" total;
    out "    \"lower_seconds\": %.3f,\n" p.Tagsim.Bphase.lower_s;
    out "    \"opt_seconds\": %.3f,\n" p.Tagsim.Bphase.opt_s;
    out "    \"select_seconds\": %.3f,\n" p.Tagsim.Bphase.select_s;
    out "    \"schedule_seconds\": %.3f,\n" p.Tagsim.Bphase.schedule_s;
    out "    \"assemble_seconds\": %.3f,\n" p.Tagsim.Bphase.assemble_s;
    out "    \"link_seconds\": %.3f\n" p.Tagsim.Bphase.link_s;
    out "  }%s\n" term
  in
  out_phases "cold_phases_opt_none" cold_none ph_none ",";
  out_phases "cold_phases_opt_checks" cold_checks ph_checks "";
  out "}\n";
  close_out oc;
  Fmt.pr "Backend timings written to BENCH_compile.json@."

(* --- Phase 6: cold-profile vs warm-plan traced-engine start. ---

   Per registry program (high5, full checking — the engine-benchmark
   configuration): wall-clock of one full traced run starting from a
   cold tstate — tier-1 profiling, superblock growth and trace
   compilation all online — versus one starting warm from the
   persistent plan store (plans loaded, validated and pre-compiled on
   attach, zero tier-1 formations).  The program is compiled once and
   the predecode/fuse attachment caches are shared by both legs, so the
   delta isolates exactly what the plan store is supposed to remove.
   The store is seeded to a fixed point first (runs re-flush until no
   new trace forms, so the warm leg's formation count is zero), then
   the legs are measured in interleaved rounds, best of [runs] each.
   Recorded in BENCH_traceplan.json. *)

module Plan = Tagsim.Plan

let traceplan_benchmark () =
  let was_enabled = Plan.enabled () in
  let was_dir = Plan.dir () in
  (* A private, initially empty store: seeding is deterministic (the
     shared store would union plans across image-sharing programs and
     earlier invocations, shifting the planned-trace counts).  Wiped
     and removed on every exit path, including exceptions. *)
  let plan_dir = Filename.temp_dir "tagsim_bench_plan" "" in
  Plan.set_dir plan_dir;
  Plan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Plan.wipe ();
      Plan.set_dir was_dir;
      Plan.set_enabled was_enabled;
      try Sys.rmdir plan_dir with Sys_error _ -> ())
  @@ fun () ->
  let runs = 9 in
  let rows =
    List.map
      (fun pname ->
        let entry = Tagsim.Benchmarks.find pname in
        let program =
          Tagsim.Program.compile ~scheme:Tagsim.Scheme.high5 ~support:chk
            ~sizes:entry.Tagsim.Benchmarks.sizes
            entry.Tagsim.Benchmarks.source
        in
        let run_once () =
          let r = Tagsim.Program.run program in
          assert (r.Tagsim.Program.abort = None)
        in
        let formed_of (tt : Tagsim.Machine.trace_totals) =
          tt.Tagsim.Machine.tt_formed
        in
        (* Seed the store to its fixed point: newly installed traces can
           shift tier-1 heat, so a couple of rounds may each discover a
           few more heads before the plan covers everything the runs
           ever promote. *)
        let rec seed round =
          Tagsim.Program.drop_tstate program;
          let before = formed_of (Tagsim.Machine.trace_counters ()) in
          run_once ();
          let formed = formed_of (Tagsim.Machine.trace_counters ()) - before in
          if formed > 0 && round < 5 then seed (round + 1)
        in
        seed 0;
        (* Planned-trace count and warm-formation check, outside the
           timed region. *)
        Tagsim.Program.drop_tstate program;
        let loaded0 = Plan.traces_loaded () in
        let formed0 = formed_of (Tagsim.Machine.trace_counters ()) in
        run_once ();
        let planned = Plan.traces_loaded () - loaded0 in
        let warm_formed = formed_of (Tagsim.Machine.trace_counters ()) - formed0 in
        let cold_leg () =
          Plan.set_enabled false;
          Tagsim.Program.drop_tstate program;
          time_leg run_once
        in
        let warm_leg () =
          Plan.set_enabled true;
          Tagsim.Program.drop_tstate program;
          time_leg run_once
        in
        (* Interleaved rounds, as in the engine benchmark: slow drift
           hits both legs alike. *)
        let cold = ref infinity and warm = ref infinity in
        for _round = 1 to runs do
          cold := min !cold (cold_leg ());
          warm := min !warm (warm_leg ())
        done;
        Plan.set_enabled true;
        (pname, planned, warm_formed, !cold, !warm))
      engine_programs
  in
  Fmt.pr "@.Traced-engine start, cold profile vs warm plan (high5, full \
          checking, best of %d):@." runs;
  List.iter
    (fun (pname, planned, warm_formed, cold, warm) ->
      Fmt.pr
        "  %-8s cold %8.2f ms   warm %8.2f ms   (%.3fx; %d planned traces, \
         %d formed warm)@."
        pname (cold *. 1e3) (warm *. 1e3) (cold /. warm) planned warm_formed)
    rows;
  let oc = open_out "BENCH_traceplan.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"one full traced-engine run per program, cold \
       tstate (online tier-1 profiling and trace formation) vs warm start \
       from the persistent plan store (plans pre-compiled on attach)\",\n";
  out "  \"scheme\": \"high5\",\n";
  out "  \"support\": \"software, full checking\",\n";
  out "  \"runs_per_leg\": %d,\n" runs;
  out "  \"programs\": [\n";
  List.iteri
    (fun i (pname, planned, warm_formed, cold, warm) ->
      out
        "    { \"program\": %S, \"planned_traces\": %d, \
         \"warm_formations\": %d, \"cold_ms_best\": %.3f, \
         \"warm_ms_best\": %.3f, \"warm_speedup\": %.3f }%s\n"
        pname planned warm_formed (cold *. 1e3) (warm *. 1e3) (cold /. warm)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Fmt.pr "Cold/warm trace-plan timings written to BENCH_traceplan.json@."

let () =
  let jobs = ref 0 in
  let engines_only = ref false in
  let cache_only = ref false in
  let compile_only = ref false in
  let traceplan_only = ref false in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | arg :: rest
      when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        jobs := int_of_string (String.sub arg 7 (String.length arg - 7));
        parse rest
    | "--engines-only" :: rest ->
        engines_only := true;
        parse rest
    | "--cache-only" :: rest ->
        cache_only := true;
        parse rest
    | "--compile-only" :: rest ->
        compile_only := true;
        parse rest
    | "--traceplan-only" :: rest ->
        traceplan_only := true;
        parse rest
    | "--no-cache" :: rest ->
        Cache.set_enabled false;
        Plan.set_enabled false;
        parse rest
    | _ :: rest -> parse rest
  in
  Cache.set_enabled true;
  Plan.set_enabled true;
  parse (List.tl (Array.to_list Sys.argv));
  Tagsim.Analysis.Pool.set_default_jobs !jobs;
  if !engines_only then engine_benchmark ()
  else if !cache_only then cache_benchmark ()
  else if !compile_only then compile_benchmark ()
  else if !traceplan_only then traceplan_benchmark ()
  else begin
    print_all ();
    benchmark ();
    engine_benchmark ();
    cache_benchmark ();
    compile_benchmark ();
    traceplan_benchmark ()
  end
