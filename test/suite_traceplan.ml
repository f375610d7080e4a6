(* The persistent trace-plan store: ahead-of-time superblock warm start
   for the traced engine.  Plans are pure data (ISSUE: the compiled
   trace is re-derived from the image on load), so the properties under
   test are: byte-identical serialization across fresh processes of the
   same image, bit-identical statistics between online formation and the
   AOT warm start over the whole program x scheme matrix, convergence to
   zero online formations once the store reaches its fixed point, silent
   fallback to online formation on damaged or stale entries, the bypass
   switch, and key sensitivity. *)

module B = Tagsim.Benchmarks
module Program = Tagsim.Program
module Plan = Tagsim.Plan
module Machine = Tagsim.Machine
module Stats = Tagsim.Stats
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let test_dir = Filename.temp_dir "tagsim_plan_test" ""
let rmdir_if_empty d = try Sys.rmdir d with Sys_error _ -> ()
let chk = Support.with_checking Support.software

(* Point the store at a private directory, start empty, and leave the
   library in its default (disabled) state afterwards; the directory
   itself is removed. *)
let with_plans f =
  Plan.set_dir test_dir;
  Plan.set_enabled true;
  Plan.wipe ();
  Plan.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Plan.wipe ();
      rmdir_if_empty test_dir;
      Plan.set_enabled false;
      Plan.set_dir (Filename.concat "_tagsim_cache" "plan"))
    f

let compile ?(scheme = Scheme.high5) ?(support = chk) name =
  let entry = B.find name in
  Program.compile ~scheme ~support ~sizes:entry.B.sizes entry.B.source

let run p =
  let r = Program.run p in
  Alcotest.(check bool) "no abort" true (r.Program.abort = None);
  r.Program.stats

let formed () = (Machine.trace_counters ()).Machine.tt_formed

(* Run [p] until a further run forms no new traces: newly installed
   traces shift tier-1 heat, so the store's fixed point can take a few
   flush generations to reach. *)
let rec converge ?(rounds = 5) p =
  Program.drop_tstate p;
  let before = formed () in
  ignore (run p);
  if formed () > before && rounds > 0 then converge ~rounds:(rounds - 1) p

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let overwrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* --- determinism: two fresh compiles of the same image flush the same
   bytes --- *)

let test_plan_determinism () =
  with_plans (fun () ->
      let flush_once () =
        let p = compile "inter" in
        ignore (run p);
        let path = Plan.entry_path (Program.plan_key p) in
        Alcotest.(check bool) "plan flushed" true (Sys.file_exists path);
        read_file path
      in
      let first = flush_once () in
      Plan.wipe ();
      let second = flush_once () in
      Alcotest.(check bool) "byte-identical plans" true (first = second))

(* --- serialization round trip --- *)

let test_serialize_round_trip () =
  with_plans (fun () ->
      let p = compile "inter" in
      ignore (run p);
      match Plan.load (Program.plan_key p) with
      | None -> Alcotest.fail "no plan stored"
      | Some plan ->
          let text = Plan.serialize plan in
          Alcotest.(check bool) "parse inverts serialize" true
            (Plan.serialize (Plan.parse text) = text))

(* --- the AOT warm start reproduces online statistics bit-for-bit,
   over every program under every scheme --- *)

let test_aot_matches_online () =
  with_plans (fun () ->
      List.iter
        (fun (entry : B.entry) ->
          List.iter
            (fun (scheme : Scheme.t) ->
              let what =
                Printf.sprintf "%s/%s" entry.B.name scheme.Scheme.name
              in
              let p = compile ~scheme entry.B.name in
              let online = run p in
              Program.drop_tstate p;
              let warm = run p in
              Alcotest.(check bool) (what ^ ": stats equal") true
                (Stats.equal online warm))
            Scheme.all)
        (B.all ()))

(* --- at the store's fixed point a warm run forms no traces and
   flushes nothing --- *)

let test_warm_zero_formations () =
  with_plans (fun () ->
      let p = compile "boyer" in
      converge p;
      let _, _, writes0 = Plan.counters () in
      Program.drop_tstate p;
      let before = formed () in
      ignore (run p);
      Alcotest.(check int) "zero online formations" before (formed ());
      let _, _, writes1 = Plan.counters () in
      Alcotest.(check int) "nothing flushed" writes0 writes1;
      Alcotest.(check bool) "traces pre-compiled" true
        (Plan.traces_loaded () > 0))

(* --- corrupt, truncated and stale-version entries fall back to online
   formation, silently and correctly --- *)

let damaged_entry_falls_back what damage =
  with_plans (fun () ->
      let p = compile "inter" in
      let online = run p in
      let path = Plan.entry_path (Program.plan_key p) in
      damage path;
      Plan.reset_counters ();
      Program.drop_tstate p;
      let before = formed () in
      let recovered = run p in
      Alcotest.(check bool) (what ^ ": re-formed online") true
        (formed () > before);
      Alcotest.(check bool) (what ^ ": stats equal") true
        (Stats.equal online recovered);
      let hits, misses, writes = Plan.counters () in
      Alcotest.(check int) (what ^ ": no hit") 0 hits;
      Alcotest.(check int) (what ^ ": one miss") 1 misses;
      Alcotest.(check int) (what ^ ": rewritten") 1 writes)

let write_as = Suite_store.write_as ~name:"plan" ~ext:"plan"

(* A well-framed entry (valid header and digest) whose payload does not
   parse: the plan parser's own checks must reject it. *)
let test_corrupt_entry () =
  damaged_entry_falls_back "corrupt" (fun path ->
      write_as ~version:Plan.version path "traces banana\nend\n")

let test_truncated_entry () =
  damaged_entry_falls_back "truncated" (fun path ->
      let text = read_file path in
      overwrite path (String.sub text 0 (String.length text / 2)))

(* The same payload, written by a store of another version. *)
let test_stale_version_entry () =
  damaged_entry_falls_back "stale-version" (fun path ->
      write_as ~version:"v0-something-else" path (Suite_store.body_of path))

(* --- a plan whose segments no longer match the image degrades to
   online formation, never wrong execution --- *)

let test_mismatched_plan_ignored () =
  with_plans (fun () ->
      let p = compile "inter" in
      let online = run p in
      (* Well-formed on the wire, but the chain points at pc 1, which is
         no superblock leader of this image: validation must reject it
         and tier 1 re-form the real traces. *)
      let seg =
        { Plan.ps_pc = 1; ps_stop = 1; ps_next = 1;
          ps_jct = Plan.Jump { link = false } }
      in
      Plan.store (Program.plan_key p)
        [ { Plan.pt_segs = [| seg; seg |]; pt_exit = 1 } ];
      Program.drop_tstate p;
      let before = formed () in
      let recovered = run p in
      Alcotest.(check bool) "re-formed online" true (formed () > before);
      Alcotest.(check bool) "stats equal" true (Stats.equal online recovered))

(* --- disabled store is bypassed entirely --- *)

let test_disabled_bypass () =
  with_plans (fun () ->
      Plan.set_enabled false;
      let p = compile "inter" in
      ignore (run p);
      Alcotest.(check (triple int int int)) "no store traffic" (0, 0, 0)
        (Plan.counters ());
      Alcotest.(check int) "no traces pre-compiled" 0 (Plan.traces_loaded ());
      Alcotest.(check bool) "no entry written" false
        (Sys.file_exists (Plan.entry_path (Program.plan_key p))))

(* --- the key separates images, schemes and supports --- *)

let test_key_sensitivity () =
  let pkey ?scheme ?support name = Program.plan_key (compile ?scheme ?support name) in
  let base = pkey "inter" in
  Alcotest.(check bool) "deterministic" true (base = pkey "inter");
  Alcotest.(check bool) "program changes key" false (base = pkey "comp");
  Alcotest.(check bool) "scheme changes key" false
    (base = pkey ~scheme:Scheme.low2 "inter");
  Alcotest.(check bool) "support changes key" false
    (base = pkey ~support:Support.software "inter");
  let k fingerprint token = Plan.key ~fingerprint ~token in
  Alcotest.(check bool) "fingerprint changes key" false
    (k "aa" "t" = k "bb" "t");
  Alcotest.(check bool) "token changes key" false (k "aa" "t" = k "aa" "u")

let suite =
  [
    ( "traceplan",
      [
        Alcotest.test_case "determinism" `Quick test_plan_determinism;
        Alcotest.test_case "serialize-round-trip" `Quick
          test_serialize_round_trip;
        Alcotest.test_case "aot-matches-online" `Slow test_aot_matches_online;
        Alcotest.test_case "warm-zero-formations" `Quick
          test_warm_zero_formations;
        Alcotest.test_case "corrupt-entry" `Quick test_corrupt_entry;
        Alcotest.test_case "truncated-entry" `Quick test_truncated_entry;
        Alcotest.test_case "stale-version" `Quick test_stale_version_entry;
        Alcotest.test_case "mismatched-plan" `Quick test_mismatched_plan_ignored;
        Alcotest.test_case "disabled-bypass" `Quick test_disabled_bypass;
        Alcotest.test_case "key-sensitivity" `Quick test_key_sensitivity;
      ] );
  ]
