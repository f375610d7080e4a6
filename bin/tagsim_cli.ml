(** The tagsim command-line interface.

    - [tagsim list]: the benchmark programs
    - [tagsim run NAME ...]: run a benchmark under a configuration
    - [tagsim file PATH ...]: compile and run a Lisp source file
    - [tagsim asm NAME ...]: dump the scheduled assembly of a benchmark
    - [tagsim experiments ...]: regenerate the paper's tables and figures *)

open Cmdliner

let scheme_arg =
  let parse s =
    try Ok (Tagsim.Scheme.by_name s)
    with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf (s : Tagsim.Scheme.t) = Fmt.string ppf s.Tagsim.Scheme.name in
  Arg.conv (parse, print)

let scheme =
  Arg.(
    value
    & opt scheme_arg Tagsim.Scheme.high5
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:"Tag scheme: high5, high6, low2 or low3.")

let checking =
  Arg.(
    value & flag
    & info [ "c"; "checking" ] ~doc:"Enable full run-time checking.")

let config =
  let parse s =
    match Tagsim.Support.by_name s with
    | Some c -> Ok c
    | None -> Error (`Msg ("unknown hardware configuration: " ^ s))
  in
  let print ppf s = Fmt.string ppf (Tagsim.Support.describe s) in
  Arg.(
    value
    & opt (conv (parse, print)) Tagsim.Support.software
    & info [ "hw" ] ~docv:"CONFIG"
        ~doc:
          "Hardware support: software, row1..row7 (Table 2 rows) or spur.")

let semi =
  Arg.(
    value
    & opt (some int) None
    & info [ "semi" ] ~docv:"BYTES" ~doc:"Semispace size in bytes.")

let opt_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("checks", `Checks) ]) `None
    & info [ "opt" ] ~docv:"LEVEL"
        ~doc:
          "Backend optimization level: $(b,none) (default; byte-identical \
           to the monolithic oracle) or $(b,checks) (tag-knowledge \
           check elimination over the typed tag-operation IR).")

let engine_arg =
  let parse s =
    match Tagsim.Machine.engine_by_name s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Fmt.str "unknown engine: %s (valid engines: %s)" s
                (String.concat ", "
                   (List.map Tagsim.Machine.engine_name
                      Tagsim.Machine.engine_all))))
  in
  let print ppf e = Fmt.string ppf (Tagsim.Machine.engine_name e) in
  Arg.(
    value
    & opt (conv (parse, print)) `Traced
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulator engine: $(b,traced) (default; cold code on the \
           re-decoding interpreter, hot paths in profile-guided \
           superblock traces) or $(b,reference) (the re-decoding \
           interpreter alone).  Both produce bit-identical statistics.")

let jobs =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment matrix; 0 (the default) \
           means the recommended domain count of this machine, clamped \
           to 16.")

let support_of checking config =
  if checking then Tagsim.Support.with_checking config else config

let pp_stats ppf (stats : Tagsim.Stats.t) =
  let total = Tagsim.Stats.total stats in
  let pct n = 100.0 *. float_of_int n /. float_of_int total in
  Fmt.pf ppf "cycles: %d  (instructions %d)@\n" total
    (Tagsim.Stats.executed_insns stats);
  Fmt.pf ppf "tag insertion : %7d  (%5.2f%%)@\n"
    (Tagsim.Stats.insertion stats)
    (pct (Tagsim.Stats.insertion stats));
  Fmt.pf ppf "tag removal   : %7d  (%5.2f%%)@\n" (Tagsim.Stats.removal stats)
    (pct (Tagsim.Stats.removal stats));
  Fmt.pf ppf "tag extraction: %7d  (%5.2f%%)@\n"
    (Tagsim.Stats.extraction stats)
    (pct (Tagsim.Stats.extraction stats));
  Fmt.pf ppf "tag checking  : %7d  (%5.2f%%)  (incl. extraction)@\n"
    (Tagsim.Stats.tag_checking stats)
    (pct (Tagsim.Stats.tag_checking stats));
  Fmt.pf ppf "generic arith : %7d  (%5.2f%%)@\n"
    (Tagsim.Stats.generic_arith stats)
    (pct (Tagsim.Stats.generic_arith stats));
  Fmt.pf ppf "allocation    : %7d  (%5.2f%%)@\n" (Tagsim.Stats.alloc stats)
    (pct (Tagsim.Stats.alloc stats));
  Fmt.pf ppf "collector     : %7d  (%5.2f%%)@\n" (Tagsim.Stats.gc stats)
    (pct (Tagsim.Stats.gc stats))

let run_program source sizes scheme support opt engine =
  match Tagsim.Program.run_source ~opt ~engine ~sizes ~scheme ~support source with
  | exception Tagsim.Machine.Machine_error msg ->
      Fmt.pr "aborted: machine error: %s@." msg
  | exception Tagsim.Codegen.Error msg ->
      Fmt.pr "aborted: compile error: %s@." msg
  | program, result ->
      (match result.Tagsim.Program.abort with
      | Some msg -> Fmt.pr "aborted: %s@." msg
      | None ->
          Fmt.pr "result: %s@."
            (Tagsim.Program.hval_to_string
               (Option.get result.Tagsim.Program.value)));
      Fmt.pr "%a" pp_stats result.Tagsim.Program.stats;
      Fmt.pr "collections: %d (%d bytes copied)@."
        result.Tagsim.Program.gc_collections
        result.Tagsim.Program.gc_bytes_copied;
      Fmt.pr "object code: %d words@."
        program.Tagsim.Program.meta.Tagsim.Program.object_words;
      let elided = program.Tagsim.Program.meta.Tagsim.Program.checks_eliminated in
      if elided > 0 then Fmt.pr "checks eliminated: %d@." elided

let sizes_of (entry_sizes : Tagsim.Layout.sizes) semi : Tagsim.Layout.sizes =
  match semi with
  | None -> entry_sizes
  | Some bytes -> { entry_sizes with Tagsim.Layout.semi_bytes = bytes }

(* --- run --- *)

let bench_name =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME" ~doc:"Benchmark name (see $(b,tagsim list)).")

let run_cmd =
  let run name scheme checking config semi opt engine =
    let entry = Tagsim.Benchmarks.find name in
    Fmt.pr "== %s: %s@." name entry.Tagsim.Benchmarks.description;
    run_program entry.Tagsim.Benchmarks.source
      (sizes_of entry.Tagsim.Benchmarks.sizes semi)
      scheme
      (support_of checking config)
      opt engine
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark program on the simulator.")
    Term.(
      const run $ bench_name $ scheme $ checking $ config $ semi $ opt_arg
      $ engine_arg)

(* --- file --- *)

let file_cmd =
  let run path scheme checking config semi opt engine =
    let ic = open_in path in
    let n = in_channel_length ic in
    let source = really_input_string ic n in
    close_in ic;
    run_program source
      (sizes_of Tagsim.Layout.default_sizes semi)
      scheme
      (support_of checking config)
      opt engine
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Lisp source file defining (de main () ...).")
  in
  Cmd.v
    (Cmd.info "file" ~doc:"Compile and run a Lisp source file.")
    Term.(
      const run $ path $ scheme $ checking $ config $ semi $ opt_arg
      $ engine_arg)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Tagsim.Benchmarks.entry) ->
        Fmt.pr "%-8s %s@." e.Tagsim.Benchmarks.name
          e.Tagsim.Benchmarks.description)
      (Tagsim.Benchmarks.all ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark programs.")
    Term.(const run $ const ())

(* --- asm --- *)

let asm_cmd =
  let run name scheme checking config opt =
    let entry = Tagsim.Benchmarks.find name in
    let program =
      Tagsim.Program.compile ~opt ~sizes:entry.Tagsim.Benchmarks.sizes ~scheme
        ~support:(support_of checking config)
        entry.Tagsim.Benchmarks.source
    in
    Fmt.pr "%a@." Tagsim.Image.pp program.Tagsim.Program.image
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Dump the scheduled assembly of a benchmark.")
    Term.(const run $ bench_name $ scheme $ checking $ config $ opt_arg)

(* --- profile --- *)

let profile_cmd =
  let run name scheme checking config =
    let entry = Tagsim.Benchmarks.find name in
    let rows =
      Tagsim.Analysis.Profile.measure ~scheme
        ~support:(support_of checking config)
        entry
    in
    Fmt.pr "%a@." Tagsim.Analysis.Profile.pp rows
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-function cycle profile of a benchmark run.")
    Term.(const run $ bench_name $ scheme $ checking $ config)

(* --- fuzz --- *)

let fuzz_cmd =
  let module Cross = Tagsim.Fuzz.Cross in
  let module Driver = Tagsim.Fuzz.Driver in
  let run seed count max_size matrix shrink out =
    let seed =
      match seed with
      | Some s -> s
      | None ->
          (* no seed given: derive one and echo it, so any CI failure
             is replayable with [fuzz --seed S] *)
          Unix.gettimeofday () *. 1e6
          |> Int64.of_float
          |> Int64.logand 0x3FFFFFFFL
          |> Int64.to_int
    in
    Fmt.pr "fuzz: seed %d, %d programs, max size %d, matrix %s@." seed count
      max_size matrix.Cross.m_name;
    let report =
      Driver.campaign
        ~log:(fun line -> Fmt.pr "%s@." line)
        ~shrink ~matrix ~seed ~count ~max_size ()
    in
    Fmt.pr "fuzz: %d programs checked, %d rejected by the compiler, %d \
            divergence(s)@."
      report.Driver.r_generated report.Driver.r_skipped
      (List.length report.Driver.r_counterexamples);
    (match report.Driver.r_counterexamples with
    | [] -> ()
    | cexs ->
        (try Sys.mkdir out 0o777 with Sys_error _ -> ());
        List.iter
          (fun (c : Driver.counterexample) ->
            let path =
              Filename.concat out
                (Fmt.str "cex_seed%d_prog%d.lisp" c.Driver.cx_seed
                   c.Driver.cx_index)
            in
            let oc = open_out path in
            Printf.fprintf oc
              "; tagsim fuzz counterexample\n\
               ; reproduce: tagsim fuzz --seed %d --count %d\n\
               ; divergence: %s\n\
               ; %s (%d nodes):\n%s\n\n\
               ; original:\n%s\n"
              c.Driver.cx_seed (c.Driver.cx_index + 1) c.Driver.cx_detail
              (if c.Driver.cx_minimized then "shrunk" else "not shrunk")
              c.Driver.cx_nodes c.Driver.cx_shrunk
              (String.concat "\n"
                 (List.map (fun l -> "; " ^ l)
                    (String.split_on_char '\n' c.Driver.cx_source)));
            close_out oc;
            Fmt.pr "counterexample written to %s@." path)
          cexs;
        exit 1)
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed.  The same seed, count and size replay the exact \
             program sequence; omitted, a time-derived seed is chosen \
             and echoed.")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let max_size =
    Arg.(
      value & opt int 80
      & info [ "max-size" ] ~docv:"NODES"
          ~doc:"Size bound (s-expression nodes) for generated programs.")
  in
  let matrix =
    let parse s =
      match Tagsim.Fuzz.Cross.by_name s with
      | Some m -> Ok m
      | None ->
          Error
            (`Msg
               (Fmt.str "unknown matrix: %s (valid: %s)" s
                  (String.concat ", " Tagsim.Fuzz.Cross.matrix_names)))
    in
    let print ppf (m : Cross.matrix) = Fmt.string ppf m.Cross.m_name in
    Arg.(
      value
      & opt (conv (parse, print)) Cross.full
      & info [ "matrix" ] ~docv:"NAME"
          ~doc:
            "Configuration matrix: $(b,full) (all schemes, a support \
             sample, every engine/backend/opt combination) or $(b,smoke) \
             (one scheme/support pair, every engine/backend/opt \
             combination).")
  in
  let shrink =
    Arg.(
      value & opt bool true
      & info [ "shrink" ] ~docv:"BOOL"
          ~doc:"Delta-debug counterexamples down to a minimal reproducer.")
  in
  let out =
    Arg.(
      value & opt string "_fuzz_out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk counterexample files (CI artifacts).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs over the \
          engine/backend/opt matrix, checked against the reference \
          interpreter.")
    Term.(const run $ seed $ count $ max_size $ matrix $ shrink $ out)

(* --- experiments --- *)

(* The [--verbose] run summary, on stderr so the artifact text on stdout
   stays byte-identical between cold and warm runs, read from the
   counter registry.  CI greps the "cache:", "simulations:" and
   "traces:" lines. *)
let print_run_summary () =
  let module Cache = Tagsim.Analysis.Cache in
  let module M = Tagsim.Metrics in
  let n name = M.get (M.counter name) and s name = M.seconds (M.counter name) in
  Fmt.epr "== run summary ==@.";
  Fmt.epr "jobs: %d@." !Tagsim.Analysis.Pool.default_jobs;
  if Cache.enabled () then
    Fmt.epr "cache: %d hits, %d misses, %d writes (dir %s)@." (n "cache.hits")
      (n "cache.misses") (n "cache.writes") (Cache.dir ())
  else Fmt.epr "cache: disabled@.";
  Fmt.epr "simulations: %d@." (n "run.simulations");
  let simulate_s = s "run.simulate_s" in
  Fmt.epr "phases: compile %.2fs  simulate %.2fs  render %.2fs@."
    (s "run.compile_s") simulate_s (s "planner.render_s");
  Fmt.epr
    "backend: codegen %.2fs  lower %.2fs  opt %.2fs  select %.2fs  schedule \
     %.2fs  assemble %.2fs  link %.2fs@."
    (s "compiler.codegen_s") (s "compiler.lower_s") (s "compiler.opt_s")
    (s "compiler.select_s") (s "asm.schedule_s") (s "asm.assemble_s")
    (s "asm.link_s");
  let pct part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  let entered = n "trace.entered" in
  Fmt.epr
    "traces: formed %d in %.1fs (%.0f Mword), %d entered, side-exit rate \
     %.2f%%, %.1f%% of instructions retired in traces@."
    (n "trace.formed") (s "trace.form_s")
    (float_of_int (n "trace.form_words") /. 1e6)
    entered
    (pct (n "trace.side_exits") entered)
    (pct (n "trace.in_trace") (n "trace.retired"));
  let insns = n "trace.insns" in
  Fmt.epr "retired: %d instructions in traced runs, %.0f MIPS over simulate@."
    insns
    (if simulate_s > 0.0 then float_of_int insns /. simulate_s /. 1e6
     else 0.0);
  let gc = Gc.quick_stat () in
  Fmt.epr
    "gc: %d minor, %d major collections, %.1f Mword allocated in the major \
     heap, top heap %.1f MB@."
    gc.Gc.minor_collections gc.Gc.major_collections (gc.Gc.major_words /. 1e6)
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)

let experiments_cmd =
  let module Spec = Tagsim.Analysis.Spec in
  let module Planner = Tagsim.Analysis.Planner in
  let module Cache = Tagsim.Analysis.Cache in
  let run only jobs engine json csv cache_dir no_cache verbose =
    Tagsim.Analysis.Pool.set_default_jobs jobs;
    Cache.set_dir cache_dir;
    Cache.set_enabled (not no_cache);
    let want name = only = [] || List.mem name only in
    (* One global plan: the union of the requested artifacts' matrices,
       deduplicated and fanned out once over the pool. *)
    let requested =
      List.filter (fun a -> want a.Spec.a_name) Planner.artifacts
    in
    let rendered =
      try Planner.plan ~engine requested
      with Tagsim.Analysis.Run.Wrong_result msg ->
        Fmt.epr "tagsim: wrong result: %s@." msg;
        exit 1
    in
    List.iter
      (fun r ->
        (* table1 opens the report; everything else is preceded by a
           blank line (the historical output format, byte for byte). *)
        if r.Spec.r_name = "table1" then Fmt.pr "%s@." r.Spec.r_text
        else Fmt.pr "@.%s@." r.Spec.r_text)
      rendered;
    Option.iter (fun path -> Planner.write_json path rendered) json;
    Option.iter (fun path -> Planner.write_csv path rendered) csv;
    if verbose then print_run_summary ()
  in
  let only =
    let names = Planner.names () in
    let parse s =
      if List.mem s names then Ok s
      else
        Error
          (`Msg
             (Fmt.str "unknown artifact: %s (valid artifacts: %s)" s
                (String.concat ", " names)))
    in
    Arg.(
      value
      & opt (list (conv (parse, Fmt.string))) []
      & info [ "only" ] ~docv:"NAMES"
          ~doc:
            (Fmt.str "Comma-separated subset of %s."
               (String.concat ", " names)))
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the rendered artifacts as structured JSON to \
             $(docv) (the format of the committed RESULTS.json).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also write the rendered artifacts as CSV sections to $(docv).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string "_tagsim_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory of the persistent measurement cache, one \
             $(b,.entry) file per configuration (created on demand).  \
             Entries are keyed on the configuration and on a digest of \
             the measured code computed at build time, so the store can \
             be kept across invocations and branches: an entry made by \
             other code is a miss, and stays on disk until $(b,make \
             clean-cache).  Nothing else is written: compiled objects \
             and trace plans live in the process only.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Bypass the persistent measurement cache entirely: neither \
             read nor write it, so every configuration is compiled and \
             simulated.  A configuration that several requested \
             artifacts use is still simulated once: the plan unions and \
             deduplicates their matrices before it runs.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Print a run summary on stderr, one line each: $(b,jobs:) \
             the worker count; $(b,cache:) store hits, misses and \
             writes; $(b,simulations:) configurations simulated; \
             $(b,phases:) compile, simulate and render wall-clock \
             totals; $(b,backend:) the compile phase split into \
             codegen, lower, opt, select, schedule, assemble and link; \
             $(b,traces:) superblock traces formed (with their \
             formation time and allocation), entered, the side-exit \
             rate and the share of instructions retired in traces; \
             $(b,retired:) instructions retired by traced runs and the \
             MIPS over simulate.  Every figure so far is read from the \
             one counter registry, summed over all worker domains.  \
             Last, $(b,gc:) the process's minor and major collections, \
             the words allocated in the major heap (promoted or \
             allocated there directly), and the top major-heap size, \
             from $(b,Gc.quick_stat).")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures.")
    Term.(
      const run $ only $ jobs $ engine_arg $ json $ csv $ cache_dir
      $ no_cache $ verbose)

let () =
  let doc =
    "tagsim: Steenkiste & Hennessy's 1987 tag-handling measurement study, \
     reproduced"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tagsim" ~doc)
          [
            run_cmd; file_cmd; list_cmd; asm_cmd; profile_cmd; fuzz_cmd;
            experiments_cmd;
          ]))
