(* The incremental backend: relocatable per-unit objects, the linker,
   and the content-addressed object cache.  The pivotal property is the
   differential one — for every tag scheme and every named support row,
   the linked image is byte-identical to the monolithically assembled
   one — checked with a warm in-process object memo, so it doubles as a
   proof that the cache keys (including the arithmetic-flag projection)
   never conflate units that should differ.  The rest covers key
   sensitivity, on-disk round-trips, and damaged-store robustness. *)

module B = Tagsim.Benchmarks
module Program = Tagsim.Program
module Image = Tagsim.Image
module Objcache = Tagsim.Objcache
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Sched = Tagsim.Sched
module Ast = Tagsim.Ast
module Expand = Tagsim.Expand

(* A unique store directory per test-process run, under the system temp
   directory — never the working tree (a suite crash must not leave
   droppings next to the sources). *)
let test_dir = Filename.temp_dir "_tagsim_objcache_test" ""

let rmdir_if_empty d = try Sys.rmdir d with Sys_error _ -> ()

(* Point the object store at the private directory, start with both
   levels empty, and leave the library in its default (store disabled,
   empty memo) state afterwards; the directory itself is removed. *)
let with_store f =
  Objcache.set_dir test_dir;
  Objcache.set_enabled true;
  Objcache.wipe ();
  Objcache.reset_counters ();
  Objcache.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Objcache.wipe ();
      rmdir_if_empty test_dir;
      Objcache.set_enabled false;
      Objcache.set_dir (Filename.concat "_tagsim_cache" "obj");
      Objcache.clear_memo ())
    f

let source name = (B.find name).B.source

let compile ?backend ?sched ~scheme ~support name =
  Program.compile ?backend ?sched ~scheme ~support (source name)

(* --- the differential: monolithic vs linked, every scheme x every
   named support row --- *)

let differential name () =
  (* Memo only (store disabled, the with_store fixture is not used):
     hits across the support rows exercise the key projection. *)
  Objcache.clear_memo ();
  let fe = Program.analyze (source name) in
  List.iter
    (fun scheme ->
      List.iter
        (fun (row, support) ->
          let mono =
            Program.compile_frontend ~backend:`Monolithic ~scheme ~support fe
          in
          let inc =
            Program.compile_frontend ~backend:`Incremental ~scheme ~support fe
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s byte-identical" name scheme.Scheme.name
               row)
            true
            (Image.equal mono.Program.image inc.Program.image))
        Support.all_named)
    Scheme.all;
  Objcache.clear_memo ()

(* --- a warm memo serves every unit and still reproduces the image --- *)

let test_warm_recompile () =
  with_store (fun () ->
      let scheme = Scheme.high5 and support = Support.software in
      let cold = compile ~scheme ~support "comp" in
      let _, cold_misses, _ = Objcache.counters () in
      Alcotest.(check bool) "cold run misses" true (cold_misses > 0);
      Objcache.reset_counters ();
      let warm = compile ~scheme ~support "comp" in
      let _, warm_misses, _ = Objcache.counters () in
      Alcotest.(check int) "warm run: no misses" 0 warm_misses;
      Alcotest.(check bool) "warm image identical" true
        (Image.equal cold.Program.image warm.Program.image))

(* --- the persistent store alone (memo dropped) reproduces the image --- *)

let test_disk_round_trip () =
  with_store (fun () ->
      let scheme = Scheme.low2 and support = Support.software in
      let cold = compile ~scheme ~support "inter" in
      Objcache.clear_memo ();
      Objcache.reset_counters ();
      let reloaded = compile ~scheme ~support "inter" in
      let hits, misses, _ = Objcache.counters () in
      Alcotest.(check int) "all units from disk" 0 misses;
      Alcotest.(check bool) "some hits" true (hits > 0);
      Alcotest.(check bool) "reloaded image identical" true
        (Image.equal cold.Program.image reloaded.Program.image))

(* --- key sensitivity --- *)

let def_of src =
  match Expand.program src with
  | [ d ] -> d
  | _ -> Alcotest.fail "expected one definition"

let test_key_sensitivity () =
  let d = def_of "(de f (x) (car x))" in
  let darith = def_of "(de f (x) (plus2 x 1))" in
  let base ?(scheme = Scheme.high5) ?(support = Support.software)
      ?(sched = Sched.default) ?(opt = `None) ?(env = "env0")
      ?(fingerprint = Objcache.def_fingerprint d) ?(uses_arith = false) () =
    Objcache.key ~kind:"fn" ~fingerprint ~env ~scheme
      ~support_token:(Objcache.support_token ~uses_arith support)
      ~sched ~opt
  in
  let k = base () in
  Alcotest.(check bool) "deterministic" true (k = base ());
  Alcotest.(check bool) "scheme flips key" true (k <> base ~scheme:Scheme.low2 ());
  let row1 = List.assoc "row1" Support.all_named in
  Alcotest.(check bool) "support flips key" true (k <> base ~support:row1 ());
  Alcotest.(check bool) "sched flips key" true
    (k <> base ~sched:{ Sched.default with Sched.hoist = false } ());
  Alcotest.(check bool) "opt flips key" true (k <> base ~opt:`Checks ());
  Alcotest.(check bool) "env flips key" true (k <> base ~env:"env1" ());
  Alcotest.(check bool) "source flips key" true
    (k <> base ~fingerprint:(Objcache.def_fingerprint darith) ());
  (* The projection: configurations differing only in the
     generic-arithmetic flags — row 4 is exactly software plus
     [hw_generic_arith] — share a non-arithmetic function's key, but
     never an arithmetic one's. *)
  let row4 = List.assoc "row4" Support.all_named in
  Alcotest.(check bool) "row4/software differ only in arith flags" true
    ({ row4 with Support.hw_generic_arith = false; int_biased_arith = true }
    = Support.software);
  Alcotest.(check bool) "non-arith fn shared across row4/software" true
    (base ~support:row4 () = base ~support:Support.software ());
  Alcotest.(check bool) "arith fn detected" true (Objcache.def_uses_arith darith);
  Alcotest.(check bool) "non-arith fn detected" true (not (Objcache.def_uses_arith d));
  Alcotest.(check bool) "arith fn not shared across row4/software" true
    (base ~support:row4 ~uses_arith:true
       ~fingerprint:(Objcache.def_fingerprint darith) ()
    <> base ~support:Support.software ~uses_arith:true
         ~fingerprint:(Objcache.def_fingerprint darith) ())

(* --- damaged store entries are silent misses --- *)

let damaged_store_recomputes what damage () =
  with_store (fun () ->
      let scheme = Scheme.high5 and support = Support.software in
      let cold = compile ~scheme ~support "inter" in
      (* Damage every object on disk, drop the memo: recompile must
         silently rebuild and overwrite. *)
      Array.iter
        (fun name ->
          let path = Filename.concat test_dir name in
          if Filename.check_suffix name ".obj" then damage path)
        (Sys.readdir test_dir);
      Objcache.clear_memo ();
      Objcache.reset_counters ();
      let again = compile ~scheme ~support "inter" in
      let _, misses, writes = Objcache.counters () in
      Alcotest.(check bool) (what ^ ": recomputed") true (misses > 0);
      Alcotest.(check bool) (what ^ ": rewritten") true (writes > 0);
      Alcotest.(check bool) (what ^ ": image identical") true
        (Image.equal cold.Program.image again.Program.image))

let overwrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let write_as = Suite_store.write_as ~name:"obj" ~ext:"obj"

(* A well-framed object (valid header and digest) whose payload does not
   parse: the object parser's own checks must reject it. *)
let corrupt path =
  write_as ~version:Objcache.version path "I 0 p frobnicate 1 2\nend\n"

let truncate path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic (n / 2) in
  close_in ic;
  overwrite path text

(* The same payload, written by a store of another version. *)
let restamp version path = write_as ~version path (Suite_store.body_of path)

let stale = restamp "none"

(* The pre-refactor stamp specifically: a version-1 object (from before
   the optimization level joined the key) can never satisfy a lookup
   under the current format. *)
let stale_v1 = restamp "1"

let suite =
  [
    ( "link",
      [
        Alcotest.test_case "differential-inter" `Slow (differential "inter");
        Alcotest.test_case "differential-comp" `Slow (differential "comp");
        Alcotest.test_case "differential-frl" `Slow (differential "frl");
        Alcotest.test_case "warm-recompile" `Quick test_warm_recompile;
        Alcotest.test_case "disk-round-trip" `Quick test_disk_round_trip;
        Alcotest.test_case "key-sensitivity" `Quick test_key_sensitivity;
        Alcotest.test_case "corrupt-object" `Quick
          (damaged_store_recomputes "corrupt" corrupt);
        Alcotest.test_case "truncated-object" `Quick
          (damaged_store_recomputes "truncated" truncate);
        Alcotest.test_case "stale-object" `Quick
          (damaged_store_recomputes "stale" stale);
        Alcotest.test_case "previous-version-object" `Quick
          (damaged_store_recomputes "previous-version" stale_v1);
      ] );
  ]
