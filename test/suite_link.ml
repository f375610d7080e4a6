(* The incremental backend: relocatable per-unit objects, the linker,
   and the content-keyed object memo.  The pivotal property is the
   differential one — for every tag scheme and every named support row,
   the linked image is byte-identical to the monolithically assembled
   one — checked with a warm memo, so it doubles as a proof that the
   memo keys (including the arithmetic-flag projection) never conflate
   units that should differ.  The rest covers memo hits and key
   sensitivity. *)

module B = Tagsim.Benchmarks
module Program = Tagsim.Program
module Image = Tagsim.Image
module Objcache = Tagsim.Objcache
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Sched = Tagsim.Sched
module Ast = Tagsim.Ast
module Expand = Tagsim.Expand

(* Start from an empty memo and zeroed counters; leave the memo empty. *)
let with_memo f =
  Objcache.reset_counters ();
  Objcache.clear_memo ();
  Fun.protect ~finally:Objcache.clear_memo f

let source name = (B.find name).B.source

let compile ?backend ?sched ~scheme ~support name =
  Program.compile ?backend ?sched ~scheme ~support (source name)

(* --- the differential: monolithic vs linked, every scheme x every
   named support row --- *)

let differential name () =
  (* Hits across the support rows exercise the key projection. *)
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
  with_memo (fun () ->
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

let suite =
  [
    ( "link",
      [
        Alcotest.test_case "differential-inter" `Slow (differential "inter");
        Alcotest.test_case "differential-comp" `Slow (differential "comp");
        Alcotest.test_case "differential-frl" `Slow (differential "frl");
        Alcotest.test_case "warm-recompile" `Quick test_warm_recompile;
        Alcotest.test_case "key-sensitivity" `Quick test_key_sensitivity;
      ] );
  ]
