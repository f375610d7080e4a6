(* The differential fuzzing subsystem: generator determinism, the
   shrinker, the campaign driver (against an injected synthetic
   divergence, so no engine needs breaking), a fixed-seed smoke
   campaign over the full engine x backend x opt matrix, and the
   regression corpus of shrunk counterexamples from the fuzzing
   sessions that built this harness — each pinned to the checked
   behavior the cross-config oracle now agrees on. *)

module Rng = Tagsim.Fuzz.Rng
module Gen = Tagsim.Fuzz.Gen
module Cross = Tagsim.Fuzz.Cross
module Shrink = Tagsim.Fuzz.Shrink
module Driver = Tagsim.Fuzz.Driver
module Sexp = Tagsim.Sexp
module Program = Tagsim.Program
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let chk = Support.with_checking Support.software

(* --- the seeded stream --- *)

let test_rng_determinism () =
  let draw seed = List.init 32 (fun _ -> Rng.int (Rng.create seed) 1000) in
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 32 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 32 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  Alcotest.(check bool)
    "different seeds differ" false
    (draw 1 = draw 2)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.range r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (w >= -5 && w <= 5)
  done

(* --- the generator --- *)

let test_gen_determinism () =
  let gen seed = Gen.render (Gen.program (Rng.create seed) ~max_size:60) in
  Alcotest.(check string) "same seed, same program" (gen 9) (gen 9);
  Alcotest.(check bool) "different seeds differ" false (gen 9 = gen 10)

(* Every generated program must parse, and almost every one must
   compile (the generator may overrun a compiler limit, but only
   rarely); and generated programs terminate by construction. *)
let test_gen_compilable () =
  let rng = Rng.create 1 in
  let compiled = ref 0 in
  for _ = 1 to 20 do
    let src = Gen.render (Gen.program rng ~max_size:60) in
    ignore (Sexp.parse_all src);
    match
      Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk src
    with
    | _ -> incr compiled
    | exception Tagsim.Codegen.Error _ -> ()
    | exception Tagsim.Program.Error _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most programs compile (%d/20)" !compiled)
    true (!compiled >= 15)

(* --- the shrinker --- *)

(* Minimize while a marker atom survives: the shrinker must keep the
   predicate true at every accepted step and end much smaller. *)
let test_shrink_keeps_predicate () =
  let src =
    "(de h0 (n) (if (eq n 0) 0 (h0 (sub1 n))))\n\
     (de main () (let ((a (list 1 2 3)) (b (mkvect 5)))\n\
     (putv b 2 (quote poison)) (h0 12) (length a)))"
  in
  let prog = Sexp.parse_all src in
  let has_marker p =
    let rec node = function
      | Sexp.Sym "poison" -> true
      | Sexp.Sym _ | Sexp.Int _ -> false
      | Sexp.List l -> List.exists node l
    in
    List.exists node p
  in
  Alcotest.(check bool) "marker present initially" true (has_marker prog);
  let shrunk = Shrink.minimize ~check:has_marker prog in
  Alcotest.(check bool) "marker survives" true (has_marker shrunk);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d nodes" (Gen.size prog) (Gen.size shrunk))
    true
    (Gen.size shrunk < Gen.size prog / 2)

(* Run [f] for at most [seconds] of wall-clock time: [Some] its result,
   or [None] once a real-time timer interrupts it.  The handler runs at
   the next poll point, which every loop and call has, so a hang inside
   [f] fails the test instead of stalling the suite. *)
exception Timed_out

let within ~seconds f =
  let timer it_value =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value })
  in
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  Fun.protect
    ~finally:(fun () ->
      timer 0.;
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      timer seconds;
      match f () with v -> Some v | exception Timed_out -> None)

(* Shrink through a wrong-arity predicate in value position.  Dropping
   the [0] of [(greaterp p0 0)] yields [(greaterp p0)], which once hung
   both backends' code generators; now every configuration rejects it,
   so the real oracle discards the candidate at once.  The shrink must
   reach its fixpoint inside the default attempt budget and inside a
   60 s wall-clock bound (it takes about 0.1 s on a 2-vCPU VM), keeping
   the predicate — the oracle agrees and a [greaterp] call survives —
   true. *)
let test_shrink_wrong_arity_bounded () =
  let src = "(de h0 (p0) (list (greaterp p0 0) p0))\n(de main () (h0 3))" in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let shrink () =
    let attempts = ref 0 and visited = ref false in
    let agrees p =
      incr attempts;
      let src = Gen.render p in
      if contains "(greaterp p0)" src then visited := true;
      contains "(greaterp " src && Cross.check Cross.smoke src = Cross.Agree
    in
    let prog = Sexp.parse_all src in
    Alcotest.(check bool) "predicate holds initially" true (agrees prog);
    attempts := 0;
    let shrunk = Shrink.minimize ~check:agrees prog in
    Alcotest.(check bool) "visited (greaterp p0)" true !visited;
    Alcotest.(check bool)
      (Printf.sprintf "fixpoint after %d attempts (< 2000)" !attempts)
      true (!attempts < 2000);
    Alcotest.(check bool) "predicate still holds" true (agrees shrunk)
  in
  Alcotest.(check bool) "shrink ends within 60 s" true
    (within ~seconds:60.0 shrink = Some ())

(* --- the campaign driver, against an injected divergence ---

   The acceptance bar for the whole pipeline: a synthetic "bug" (any
   program whose rendering mentions a vector build) must be caught and
   shrunk to a small reproducer, without actually breaking an engine. *)
let test_campaign_catches_injected_divergence () =
  let buggy prog =
    let src = Gen.render prog in
    let is_sub s =
      let n = String.length s and m = String.length src in
      let rec at i = i + n <= m && (String.sub src i n = s || at (i + 1)) in
      at 0
    in
    if is_sub "mkvect" then
      Cross.Diverge
        {
          Cross.d_scheme = Scheme.high5;
          d_support = chk;
          d_detail = "injected: mkvect miscompiled";
        }
    else Cross.Agree
  in
  let report =
    Driver.campaign ~check:buggy ~matrix:Cross.smoke ~seed:5 ~count:40
      ~max_size:80 ()
  in
  Alcotest.(check bool)
    "injected divergence caught" true
    (List.length report.Driver.r_counterexamples > 0);
  List.iter
    (fun cx ->
      (match buggy (Sexp.parse_all cx.Driver.cx_shrunk) with
      | Cross.Diverge _ -> ()
      | _ -> Alcotest.fail "shrunk program no longer reproduces");
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d nodes (<= 20)" cx.Driver.cx_nodes)
        true (cx.Driver.cx_nodes <= 20))
    report.Driver.r_counterexamples

(* Without minimisation the campaign must not claim a shrink: every
   program diverges, [~shrink:false] keeps the shrinker from running,
   and each counterexample is the generated program itself. *)
let test_campaign_no_shrink_claim () =
  let lines = ref [] in
  let report =
    Driver.campaign
      ~check:(fun _ ->
        Cross.Diverge
          {
            Cross.d_scheme = Scheme.high5;
            d_support = chk;
            d_detail = "injected: always";
          })
      ~log:(fun l -> lines := l :: !lines)
      ~shrink:false ~matrix:Cross.smoke ~seed:5 ~count:3 ~max_size:40 ()
  in
  let has prefix = List.exists (String.starts_with ~prefix) !lines in
  Alcotest.(check bool) "no shrunk-to line" false (has "  shrunk to");
  Alcotest.(check bool) "not-shrunk lines" true (has "  not shrunk (");
  List.iter
    (fun cx ->
      Alcotest.(check bool) "not minimized" false cx.Driver.cx_minimized;
      Alcotest.(check string) "source kept" cx.Driver.cx_source
        cx.Driver.cx_shrunk)
    report.Driver.r_counterexamples;
  Alcotest.(check int) "every program a counterexample" 3
    (List.length report.Driver.r_counterexamples)

let test_campaign_deterministic () =
  let run () =
    let r =
      Driver.campaign
        ~check:(fun p -> ignore (Gen.render p); Cross.Agree)
        ~matrix:Cross.smoke ~seed:77 ~count:30 ~max_size:60 ()
    in
    (r.Driver.r_generated, r.Driver.r_skipped)
  in
  Alcotest.(check (pair int int)) "same seed, same report" (run ()) (run ())

(* --- the fixed-seed smoke campaign ---

   25 real programs through the real oracle on the smoke matrix (both
   engines, both backends, both opt levels, high5 + full software
   checking).  Any divergence here is a product bug. *)
let test_smoke_campaign () =
  let report =
    Driver.campaign ~matrix:Cross.smoke ~seed:20260808 ~count:25 ~max_size:70
      ()
  in
  List.iter
    (fun cx ->
      Alcotest.failf "fuzz smoke divergence (program %d): %s\nshrunk: %s"
        cx.Driver.cx_index cx.Driver.cx_detail cx.Driver.cx_shrunk)
    report.Driver.r_counterexamples;
  Alcotest.(check int) "generated" 25 report.Driver.r_generated

(* --- regression corpus ---

   Shrunk counterexamples from the campaigns that built this harness.
   Each one exposed a real defect; the sources are kept byte-for-byte
   (modulo alpha-renaming the generator's shadowed [nil] parameters)
   and must now agree across the full matrix. *)

let agree_on ?(matrix = Cross.full) what src () =
  match Cross.check matrix src with
  | Cross.Agree -> ()
  | Cross.Rejected -> Alcotest.failf "%s: rejected by every config" what
  | Cross.Diverge d -> Alcotest.failf "%s: still diverges: %s" what d.Cross.d_detail

(* Dynamic arity mismatch through a symbol's function cell: the machine
   used to jump straight into the callee with the wrong number of
   argument registers live and die on a wild memory fault (whose
   message embeds a layout-dependent pc, so the opt levels disagreed);
   the host oracle traps "arity".  Found by seed 42 on the smoke
   matrix. *)
let cx_funcall_zero_for_one = "(de h0 (x) (funcall (quote h0)))\n(de main () (h0 nil))"
let cx_funcall_one_for_zero = "(de h0 (x))\n(de main () (funcall (quote h0)))"
let cx_mapcar_arity = "(de h0 ())\n(de main () (mapcar (quote h0) (list nil)))"

(* Unbounded recursion used to overrun the stack into a wild fault; it
   now aborts with "stack overflow" when sp would pass the stack base.
   Shrunk from a decreasing-recursion helper whose decrement the
   shrinker deleted (seed 42). *)
let cx_stack_overrun = "(de h0 (x) (h0 x))\n(de main () (let ((y (h0 nil))) (get y y)))"

(* On hardware parallel-checking rows (pc-all), a failed tag check
   aborts with the machine's own error code; [Program.abort_message]
   only knew the software stubs' trap codes and printed a raw
   "abort 1" where the software rows and the host oracle say "type
   error".  Found by seed 7 on the full matrix. *)
let cx_hw_type_error = "(de main () (car nil))"
let cx_hw_type_error_assoc = "(de main () (assoc nil (list 0)))"

(* A product that wraps the 32-bit word can land back on a valid item
   bit-pattern — 65536 * 65536 wraps to 0 on every scheme, and on the
   low-tag schemes any wrap preserves the two low tag bits — so the
   machine returned a garbage value where the host oracle traps
   "arithmetic error".  There is no high-word multiply in the ISA;
   checked multiplies now verify the product by dividing it back.
   Found by seed 1234 on the full matrix (shrunk by hand from
   3 * -7 * 33554430, which only the low schemes miss). *)
let cx_mul_wrap_to_valid = "(de main () (let ((x (* 65536 65536))) x))"
let cx_mul_wrap_low = "(de main () (let ((x (* 3 (* -7 33554430)))) x))"

(* The boundary corner of the division-back check: -536870912 * -1
   wraps to the bit-pattern of the valid low-scheme item -2^29, and the
   quotient differs from the multiplicand only after the compare's own
   wrap — the exact-compare form must still catch it.  (The high
   schemes reject the literal outright.) *)
let cx_mul_wrap_corner = "(de main () (let ((x (* -536870912 -1))) x))"

(* Near-boundary products that must NOT trap on the low schemes (and
   must trap on the narrower high schemes): the check may not reject
   valid 30-bit products. *)
let cx_mul_big_ok = "(de main () (let ((x (* -16384 32767))) x))"

(* The machine's heap is bounded and the host oracle's is not: this
   program keeps about 24 KiB of lists live, so under the fuzzer's
   16 KiB semispaces it overflows the heap while the host returns 150.
   The oracle re-checks such an overflow under 16x larger semispaces.
   Shrunk from seed 46, program 32, on the smoke matrix. *)
let cx_heap_overflow =
  "(de h0 (p0) (if (greaterp p0 0) (cons nil (h0 (- p0 1)))))\n\
   (de h1 (p0) (if (greaterp p0 0) (cons (h0 20) (h1 (- p0 1)))))\n\
   (de main () (length (h1 150)))"

let overflows_at_fuzz_sizes src =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk src
  in
  Alcotest.(check (option string))
    "overflows at Gen.sizes" (Some "heap overflow")
    (Program.run p).Program.abort

let test_heap_overflow_rechecked () =
  overflows_at_fuzz_sizes cx_heap_overflow;
  agree_on ~matrix:Cross.smoke "heap overflow" cx_heap_overflow ()

(* The re-check is not a waiver: with about 480 KiB live the program
   overflows the larger heap too, and still diverges from the host. *)
let test_heap_overflow_still_diverges () =
  let src =
    "(de h0 (p0) (if (greaterp p0 0) (cons nil (h0 (- p0 1)))))\n\
     (de h1 (p0) (if (greaterp p0 0) (cons (h0 400) (h1 (- p0 1)))))\n\
     (de main () (length (h1 150)))"
  in
  overflows_at_fuzz_sizes src;
  match Cross.check Cross.smoke src with
  | Cross.Diverge d ->
      Alcotest.(check string)
        "detail"
        "high5/rtc/opt:none (semispace 262144): machine abort: heap \
         overflow, host oracle value 150"
        d.Cross.d_detail
  | Cross.Agree | Cross.Rejected -> Alcotest.fail "overflow waived"

(* Unbounded recursion whose overrun wrote over the symbol table before
   the stack guard existed, so opt:none aborted with an arithmetic error
   and opt:checks with a type error.  Both now stop at the stack base.
   Shrunk from seed 47, program 31, on the smoke matrix. *)
let cx_stack_overflow =
  "(de h0 (nil p1) (max (funcall (quote abs) p1) (h0 nil -33)))\n\
   (de main () (let ((gi (if (pairp (quote (0))) (h0 0 0))) (nil (quote (0 \
   (0 0))))) setq gint (let ((li (funcall (quote abs) (* -9 33554430))) (lv \
   (mkvect 6))) (+ gi (if (numberp gany) gany li)))))"

let test_stack_overflow_rechecked () =
  List.iter
    (fun opt ->
      let p =
        Program.compile ~opt ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk
          cx_stack_overflow
      in
      Alcotest.(check (option string))
        "aborts at the stack base" (Some "stack overflow")
        (Program.run p).Program.abort)
    [ `None; `Checks ];
  agree_on ~matrix:Cross.smoke "stack overflow" cx_stack_overflow ()

let test_arity_abort_message () =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk
      cx_funcall_zero_for_one
  in
  let r = Program.run p in
  Alcotest.(check (option string)) "traps arity" (Some "arity") r.Program.abort

let test_hw_type_error_message () =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.low2
      ~support:(Support.with_checking Support.row7) cx_hw_type_error
  in
  let r = Program.run p in
  Alcotest.(check (option string))
    "hardware check reports type error" (Some "type error") r.Program.abort

(* A run that exhausts its fuel inside a hot loop keeps its statistics
   on both engines, and they are equal: the traced leg pre-pays each
   trace's fuel and steps the head instead when it cannot, so it stops
   at the reference's retirement count. *)
let test_timeout_keeps_stats () =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk
      "(de spin (n acc) (if (greaterp n 0) (spin (- n 1) (+ acc 1)) acc))\n\
       (de main () (spin 100000 0))"
  in
  let entered () = Tagsim.Metrics.(get (counter "trace.entered")) in
  let run engine = Cross.run_engine ~fuel:50_000 ~engine p in
  let reference = run `Reference in
  let entered0 = entered () in
  let traced = run `Traced in
  Alcotest.(check bool) "the traced leg ran in traces" true
    (entered () > entered0);
  List.iter
    (fun (leg, (r : Cross.run)) ->
      Alcotest.(check string) (leg ^ " outcome") "timeout (out of fuel)"
        (Cross.outcome_to_string r.Cross.r_outcome))
    [ ("reference", reference); ("traced", traced) ];
  match (reference.Cross.r_stats, traced.Cross.r_stats) with
  | Some a, Some b ->
      Alcotest.(check bool) "equal stats" true (Tagsim.Stats.equal a b)
  | _ -> Alcotest.fail "a timeout dropped its stats"

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "rng-determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng-bounds" `Quick test_rng_bounds;
        Alcotest.test_case "gen-determinism" `Quick test_gen_determinism;
        Alcotest.test_case "gen-compilable" `Quick test_gen_compilable;
        Alcotest.test_case "shrink-keeps-predicate" `Quick
          test_shrink_keeps_predicate;
        Alcotest.test_case "shrink-wrong-arity-bounded" `Quick
          test_shrink_wrong_arity_bounded;
        Alcotest.test_case "campaign-injected-divergence" `Quick
          test_campaign_catches_injected_divergence;
        Alcotest.test_case "campaign-no-shrink-claim" `Quick
          test_campaign_no_shrink_claim;
        Alcotest.test_case "campaign-deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "smoke-campaign" `Slow test_smoke_campaign;
        Alcotest.test_case "regression-funcall-arity-0for1" `Quick
          (agree_on "funcall-arity-0for1" cx_funcall_zero_for_one);
        Alcotest.test_case "regression-funcall-arity-1for0" `Quick
          (agree_on "funcall-arity-1for0" cx_funcall_one_for_zero);
        Alcotest.test_case "regression-mapcar-arity" `Quick
          (agree_on "mapcar-arity" cx_mapcar_arity);
        Alcotest.test_case "regression-stack-overrun" `Quick
          (agree_on "stack-overrun" cx_stack_overrun);
        Alcotest.test_case "regression-hw-type-error" `Quick
          (agree_on "hw-type-error" cx_hw_type_error);
        Alcotest.test_case "regression-hw-type-error-assoc" `Quick
          (agree_on "hw-type-error-assoc" cx_hw_type_error_assoc);
        Alcotest.test_case "regression-mul-wrap-to-valid" `Quick
          (agree_on "mul-wrap-to-valid" cx_mul_wrap_to_valid);
        Alcotest.test_case "regression-mul-wrap-low" `Quick
          (agree_on "mul-wrap-low" cx_mul_wrap_low);
        Alcotest.test_case "regression-mul-wrap-corner" `Quick
          (agree_on "mul-wrap-corner" cx_mul_wrap_corner);
        Alcotest.test_case "regression-mul-big-ok" `Quick
          (agree_on "mul-big-ok" cx_mul_big_ok);
        Alcotest.test_case "regression-heap-overflow" `Quick
          test_heap_overflow_rechecked;
        Alcotest.test_case "heap-overflow-still-diverges" `Quick
          test_heap_overflow_still_diverges;
        Alcotest.test_case "regression-stack-overflow" `Quick
          test_stack_overflow_rechecked;
        Alcotest.test_case "arity-abort-message" `Quick
          test_arity_abort_message;
        Alcotest.test_case "hw-type-error-message" `Quick
          test_hw_type_error_message;
        Alcotest.test_case "timeout-keeps-stats" `Quick
          test_timeout_keeps_stats;
      ] );
  ]
