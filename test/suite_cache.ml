(* The persistent (L2) measurement cache: round-trip equality through
   the on-disk store, robustness against corrupt/truncated entries, key
   sensitivity to the configuration, engine-agnostic keys, and the
   bypass switch.  The staged compiler front end rides along (the cache
   and the shared front ends were introduced together). *)

module B = Tagsim.Benchmarks
module Run = Tagsim.Analysis.Run
module Cache = Tagsim.Analysis.Cache
module Program = Tagsim.Program
module Planner = Tagsim.Analysis.Planner
module Objcache = Tagsim.Objcache
module Plan = Tagsim.Plan
module Stats = Tagsim.Stats
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Sched = Tagsim.Sched
module Metrics = Tagsim.Metrics

let simulations = Suite_store.simulations
let cache_counters = Suite_store.cache_counters

let test_dir = Filename.temp_dir "tagsim_cache_test" ""
let rmdir_if_empty d = try Sys.rmdir d with Sys_error _ -> ()

(* Point the store at a private directory, start empty, and leave the
   library in its default (disabled, empty-memo) state afterwards; the
   directory itself is removed. *)
let with_cache f =
  Cache.set_dir test_dir;
  Cache.set_enabled true;
  Cache.wipe ();
  Metrics.reset ();
  Run.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Cache.wipe ();
      rmdir_if_empty test_dir;
      Cache.set_enabled false;
      Cache.set_dir "_tagsim_cache";
      Run.clear_cache ())
    f

let inter () = B.find "inter"

let config ?engine ?support () =
  let support = Option.value support ~default:Support.software in
  Run.config ?engine ~scheme:Scheme.high5 ~support (inter ())

let check_measurement_equal what (a : Run.measurement) (b : Run.measurement) =
  Alcotest.(check bool) (what ^ ": stats equal") true (Stats.equal a.Run.stats b.Run.stats);
  Alcotest.(check int) (what ^ ": gc collections") a.Run.gc_collections b.Run.gc_collections;
  Alcotest.(check int) (what ^ ": gc bytes") a.Run.gc_bytes_copied b.Run.gc_bytes_copied;
  Alcotest.(check bool) (what ^ ": meta equal") true (a.Run.meta = b.Run.meta)

(* --- round trip: recompute vs reload from disk --- *)

let test_round_trip () =
  with_cache (fun () ->
      let c = config () in
      let computed = Run.run_config c in
      let _, _, writes = cache_counters () in
      Alcotest.(check int) "one write" 1 writes;
      (* Drop the in-process memo: the only way back is the store. *)
      Run.clear_cache ();
      let before = simulations () in
      let reloaded = Run.run_config c in
      Alcotest.(check int) "no recompute" before (simulations ());
      let hits, _, _ = cache_counters () in
      Alcotest.(check int) "one hit" 1 hits;
      check_measurement_equal "round-trip" computed reloaded)

(* --- keys are engine-agnostic: a measurement produced by one engine
   serves every other --- *)

let test_engine_agnostic () =
  with_cache (fun () ->
      let ref_m = Run.run_config (config ~engine:`Reference ()) in
      Run.clear_cache ();
      let before = simulations () in
      let traced_m = Run.run_config (config ~engine:`Traced ()) in
      Alcotest.(check int) "served from store" before (simulations ());
      check_measurement_equal "cross-engine" ref_m traced_m)

(* --- corrupt and truncated entries fall back to recompute --- *)

let damaged_entry_recomputes what damage =
  with_cache (fun () ->
      let c = config () in
      let computed = Run.run_config c in
      damage (Cache.entry_path (Run.cache_key c));
      Run.clear_cache ();
      Metrics.reset ();
      let before = simulations () in
      let recomputed = Run.run_config c in
      Alcotest.(check int) (what ^ ": recomputed") (before + 1)
        (simulations ());
      let hits, misses, writes = cache_counters () in
      Alcotest.(check int) (what ^ ": no hit") 0 hits;
      Alcotest.(check int) (what ^ ": one miss") 1 misses;
      Alcotest.(check int) (what ^ ": rewritten") 1 writes;
      check_measurement_equal what computed recomputed)

let overwrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let body_of = Suite_store.body_of
let write_as = Suite_store.write_as

(* A well-framed entry (valid header and digest) whose payload does not
   parse: the payload's own field checks must reject it.  The test's
   own header, written over the undamaged body, must reproduce the
   store's file byte for byte, or it would not be well framed. *)
let test_corrupt_entry () =
  damaged_entry_recomputes "corrupt" (fun path ->
      let original = Suite_store.read_file path
      and stamp = Suite_store.stamp_of path in
      write_as ~stamp path (body_of path);
      Alcotest.(check string) "hand-built header matches the store's"
        original (Suite_store.read_file path);
      write_as ~stamp path "cycles banana\nend\n")

let test_truncated_entry () =
  damaged_entry_recomputes "truncated" (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let text = really_input_string ic (n / 2) in
      close_in ic;
      overwrite path text)

(* The same payload, which parses, written by a build with another code
   digest, and by the old hand-bumped version 1: only the header's
   stamp check can reject either. *)
let test_stale_version_entry () =
  List.iter
    (fun stamp ->
      damaged_entry_recomputes ("stale-version " ^ stamp) (fun path ->
          write_as ~stamp path (body_of path)))
    [ "v0-something-else"; "1" ]

(* A faithful entry of the old hand-bumped version 1 — three-int meta
   line, stamp 1 in the header — planted at the current key's path can
   never satisfy a lookup.  [stale-version] guards the header's stamp
   check; this case guards the payload parser behind it, which rejects
   the old meta line even if a header check let the entry through. *)
let test_previous_version_entry () =
  damaged_entry_recomputes "previous-version" (fun path ->
      let downgrade line =
        match String.split_on_char ' ' line with
        | "meta" :: p :: s :: o :: _ -> String.concat " " [ "meta"; p; s; o ]
        | _ -> line
      in
      write_as ~stamp:"1" path
        (String.concat "\n"
           (List.map downgrade (String.split_on_char '\n' (body_of path)))))

(* --- the key changes with every configuration axis --- *)

let test_key_sensitivity () =
  let key ?(sched = Sched.default) ?(opt = `None) ?(scheme = Scheme.high5)
      ?(support = Support.software) entry =
    Cache.key ~sched ~opt ~scheme ~support entry
  in
  let base = key (inter ()) in
  Alcotest.(check bool) "deterministic" true (base = key (inter ()));
  Alcotest.(check bool) "scheme changes key" false
    (base = key ~scheme:Scheme.low2 (inter ()));
  Alcotest.(check bool) "support changes key" false
    (base = key ~support:(Support.with_checking Support.software) (inter ()));
  Alcotest.(check bool) "sched changes key" false
    (base = key ~sched:Sched.off (inter ()));
  Alcotest.(check bool) "opt changes key" false
    (base = key ~opt:`Checks (inter ()));
  Alcotest.(check bool) "program changes key" false
    (base = key (B.find "deduce"));
  (* deduce and dedgc share one source but differ in heap sizing: the
     fingerprint (and so the key) must separate them. *)
  Alcotest.(check bool) "sizes change key" false
    (key (B.find "deduce") = key (B.find "dedgc"))

(* --- disabled store is bypassed entirely --- *)

let test_no_cache_bypass () =
  with_cache (fun () ->
      Cache.set_enabled false;
      let c = config ~support:(Support.with_checking Support.software) () in
      let before = simulations () in
      ignore (Run.run_config c);
      Alcotest.(check int) "still simulates" (before + 1) (simulations ());
      Alcotest.(check (triple int int int)) "no cache traffic" (0, 0, 0)
        (cache_counters ());
      Alcotest.(check bool) "no entry written" false
        (Sys.file_exists (Cache.entry_path (Run.cache_key c))))

(* --- a cold fan-out writes measurements, nothing else --- *)

(* Compiled objects and trace plans are never persisted: a cold table3
   fan-out with the measurement store on leaves one [*.entry] file per
   configuration behind and nothing else — no [obj/], no [plan/], no
   temp file.  Every store switch is thrown the way tagbench throws it,
   the retired ones included. *)
let test_cold_fanout_writes_only_entries () =
  let root = Filename.temp_dir "tagsim_fanout_test" "" in
  Cache.set_dir root;
  Objcache.set_dir (Filename.concat root "obj");
  Objcache.set_enabled true;
  Plan.set_dir (Filename.concat root "plan");
  Cache.set_enabled true;
  Plan.set_enabled true;
  Metrics.reset ();
  Run.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.set_dir "_tagsim_cache";
      Run.clear_cache ();
      Suite_store.rm_rf root)
    (fun () ->
      ignore (Planner.plan ~jobs:1 [ Option.get (Planner.find "table3") ]);
      Alcotest.(check (triple int int int)) "measurements: cold" (0, 10, 10)
        (cache_counters ());
      let names dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let entries, others =
        List.partition (fun n -> Filename.check_suffix n ".entry") (names root)
      in
      Alcotest.(check int) "one entry per configuration" 10
        (List.length entries);
      Alcotest.(check (list string)) "nothing but entries" [] others)

(* --- the staged front end compiles to the same program --- *)

let test_staged_pipeline () =
  let entry = inter () in
  let support = Support.with_checking Support.software in
  let direct =
    Program.compile ~sizes:entry.B.sizes ~scheme:Scheme.high5 ~support
      entry.B.source
  in
  let fe = Program.analyze entry.B.source in
  let staged =
    Program.compile_frontend ~sizes:entry.B.sizes ~scheme:Scheme.high5
      ~support fe
  in
  Alcotest.(check bool) "meta equal" true
    (direct.Program.meta = staged.Program.meta);
  (* One shared front end serves two configurations with different
     emitted code but identical measured semantics. *)
  let r1 = Program.run direct and r2 = Program.run staged in
  Alcotest.(check bool) "stats equal" true
    (Stats.equal r1.Program.stats r2.Program.stats);
  let low =
    Program.compile_frontend ~sizes:entry.B.sizes ~scheme:Scheme.low2 ~support
      fe
  in
  let r3 = Program.run low in
  Alcotest.(check bool) "low2 from same front end runs" true
    (r3.Program.abort = None)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "round-trip" `Quick test_round_trip;
        Alcotest.test_case "engine-agnostic" `Quick test_engine_agnostic;
        Alcotest.test_case "corrupt-entry" `Quick test_corrupt_entry;
        Alcotest.test_case "truncated-entry" `Quick test_truncated_entry;
        Alcotest.test_case "stale-version" `Quick test_stale_version_entry;
        Alcotest.test_case "previous-version" `Quick
          test_previous_version_entry;
        Alcotest.test_case "key-sensitivity" `Quick test_key_sensitivity;
        Alcotest.test_case "no-cache-bypass" `Quick test_no_cache_bypass;
        Alcotest.test_case "cold-fanout-writes-only-entries" `Quick
          test_cold_fanout_writes_only_entries;
        Alcotest.test_case "staged-pipeline" `Quick test_staged_pipeline;
      ] );
  ]
