(* Language-level tests: every primitive and special form, run across all
   four tag schemes with run-time checking both off and on.  Results must
   be identical in every configuration — the tag implementation is an
   implementation detail, never a semantic one. *)

module P = Tagsim.Program
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let configs =
  List.concat_map
    (fun scheme ->
      [ (scheme, Support.software);
        (scheme, Support.with_checking Support.software) ])
    Scheme.all

let run_one ~scheme ~support src =
  let _, result = P.run_source ~scheme ~support src in
  (match result.P.abort with
  | Some msg ->
      Alcotest.failf "aborted (%s, %s): %s" scheme.Scheme.name
        (Support.describe support) msg
  | None -> ());
  match result.P.value with
  | Some v -> P.hval_to_string v
  | None -> Alcotest.fail "no value"

(* Check the program's result (printed form) in every configuration. *)
let check src expected () =
  List.iter
    (fun (scheme, support) ->
      let got = run_one ~scheme ~support src in
      Alcotest.(check string)
        (Printf.sprintf "%s [%s/%s]" src scheme.Scheme.name
           (Support.describe support))
        expected got)
    configs

let case name src expected =
  Alcotest.test_case name `Quick (check src expected)

(* Generic arithmetic on boxed numbers is only defined when run-time
   checking is on (with checking off, the compiler open-codes integer
   arithmetic, as PSL did). *)
let check_checked src expected () =
  List.iter
    (fun scheme ->
      let support = Support.with_checking Support.software in
      let got = run_one ~scheme ~support src in
      Alcotest.(check string)
        (Printf.sprintf "%s [%s/rtc]" src scheme.Scheme.name)
        expected got)
    Scheme.all

let case_checked name src expected =
  Alcotest.test_case name `Quick (check_checked src expected)

let arith_cases =
  [
    case "add" "(de main () (+ 1 2 3))" "6";
    case "sub" "(de main () (- 10 3 2))" "5";
    case "neg" "(de main () (- 5))" "-5";
    case "mul" "(de main () (* 3 4 5))" "60";
    case "quotient" "(de main () (quotient 17 5))" "3";
    case "quotient-neg" "(de main () (quotient -17 5))" "-3";
    case "remainder" "(de main () (remainder 17 5))" "2";
    case "remainder-neg" "(de main () (remainder -17 5))" "-2";
    case "min" "(de main () (min 3 1 2))" "1";
    case "max" "(de main () (max 3 1 2))" "3";
    case "abs" "(de main () (abs -7))" "7";
    case "land" "(de main () (land 12 10))" "8";
    case "lor" "(de main () (lor 12 10))" "14";
    case "lxor" "(de main () (lxor 12 10))" "6";
    case "add1" "(de main () (add1 41))" "42";
    case "sub1" "(de main () (sub1 43))" "42";
    case "negative-arith" "(de main () (+ -5 -6))" "-11";
    case "big" "(de main () (* 1000 1000))" "1000000";
    case "gcd" "(de main () (gcd 12 18))" "6";
    case "zerop" "(de main () (if (zerop 0) 1 2))" "1";
    case "minusp" "(de main () (if (minusp -3) 1 2))" "1";
    case "compare-lt" "(de main () (if (< 1 2) 'yes 'no))" "yes";
    case "compare-ge" "(de main () (if (>= 2 2) 'yes 'no))" "yes";
    case "compare-le" "(de main () (if (<= 3 2) 'yes 'no))" "no";
    case "eqn" "(de main () (if (= 5 5) 'yes 'no))" "yes";
    case "neqn" "(de main () (if (/= 5 5) 'yes 'no))" "no";
  ]

let list_cases =
  [
    case "cons-car-cdr" "(de main () (cdr (cons 1 2)))" "2";
    case "list-lit" "(de main () (list 1 2 3))" "(1 2 3)";
    case "list-long" "(de main () (list 1 2 3 4 5 6 7 8))" "(1 2 3 4 5 6 7 8)";
    case "quote" "(de main () '(a b (c d) 3))" "(a b (c d) 3)";
    case "append" "(de main () (append '(1 2) '(3 4)))" "(1 2 3 4)";
    case "reverse" "(de main () (reverse '(1 2 3)))" "(3 2 1)";
    case "length" "(de main () (length '(a b c d)))" "4";
    case "memq" "(de main () (memq 'c '(a b c d)))" "(c d)";
    case "memq-miss" "(de main () (memq 'z '(a b c)))" "nil";
    case "member" "(de main () (member '(1) '((0) (1) (2))))" "((1) (2))";
    case "assq" "(de main () (cdr (assq 'b '((a 1) (b 2) (c 3)))))" "(2)";
    case "equal" "(de main () (if (equal '(1 (2)) '(1 (2))) 'yes 'no))" "yes";
    case "rplaca" "(de main () (let ((x (cons 1 2))) (rplaca x 9) (car x)))"
      "9";
    case "rplacd" "(de main () (let ((x (cons 1 2))) (rplacd x 9) (cdr x)))"
      "9";
    case "nth" "(de main () (nth '(10 20 30) 2))" "30";
    case "last" "(de main () (last '(1 2 3)))" "(3)";
    case "nconc" "(de main () (nconc (list 1 2) (list 3)))" "(1 2 3)";
    case "delq" "(de main () (delq 'b '(a b c b)))" "(a c)";
    case "copy" "(de main () (copy '(1 (2 3))))" "(1 (2 3))";
    case "dolist"
      "(de main () (let ((n 0)) (dolist (x '(1 2 3)) (setq n (+ n x))) n))"
      "6";
    case "cadr" "(de main () (cadr '(1 2 3)))" "2";
    case "cddr" "(de main () (cddr '(1 2 3)))" "(3)";
    case "caddr" "(de main () (caddr '(1 2 3)))" "3";
  ]

(* A predicate called with the wrong number of arguments, in value or
   in test position, is a compile error worded alike by both backends
   (the fuzzer's cross-backend oracle compares rejections). *)
let test_predicate_arity () =
  List.iter
    (fun (p, arity) ->
      List.iter
        (fun n ->
          let call =
            String.concat " " (p :: List.init n (fun _ -> "0"))
          in
          List.iter
            (fun src ->
              List.iter
                (fun backend ->
                  match
                    P.compile ~backend ~scheme:Scheme.high5
                      ~support:Support.software src
                  with
                  | _ -> Alcotest.failf "%s compiled" src
                  | exception Tagsim.Codegen.Error msg ->
                      Alcotest.(check string) src
                        (Printf.sprintf "%s expects %d arguments" p arity)
                        msg)
                [ `Monolithic; `Incremental ])
            [
              Printf.sprintf "(de main () (%s))" call;
              Printf.sprintf "(de main () (if (%s) 1 2))" call;
            ])
        (List.filter (( <> ) arity) [ 0; 1; 2; 3 ]))
    [
      ("eq", 2); ("null", 1); ("pairp", 1); ("atom", 1); ("symbolp", 1);
      ("vectorp", 1); ("boxp", 1); ("numberp", 1); ("lessp", 2);
      ("greaterp", 2); ("leq", 2); ("geq", 2); ("eqn", 2);
    ]

let predicate_cases =
  [
    case "atom-sym" "(de main () (if (atom 'a) 'yes 'no))" "yes";
    case "atom-pair" "(de main () (if (atom '(1)) 'yes 'no))" "no";
    case "pairp" "(de main () (if (pairp '(1)) 'yes 'no))" "yes";
    case "pairp-nil" "(de main () (if (pairp nil) 'yes 'no))" "no";
    case "null" "(de main () (if (null nil) 'yes 'no))" "yes";
    case "numberp-int" "(de main () (if (numberp 3) 'yes 'no))" "yes";
    case "numberp-sym" "(de main () (if (numberp 'a) 'yes 'no))" "no";
    case "numberp-neg" "(de main () (if (numberp -3) 'yes 'no))" "yes";
    case "symbolp" "(de main () (if (symbolp 'a) 'yes 'no))" "yes";
    case "symbolp-int" "(de main () (if (symbolp 3) 'yes 'no))" "no";
    case "vectorp" "(de main () (if (vectorp (mkvect 3)) 'yes 'no))" "yes";
    case "vectorp-no" "(de main () (if (vectorp '(1)) 'yes 'no))" "no";
    case "boxp" "(de main () (if (boxp (makebox 1)) 'yes 'no))" "yes";
    case "boxp-no" "(de main () (if (boxp 1) 'yes 'no))" "no";
    case "eq-sym" "(de main () (if (eq 'a 'a) 'yes 'no))" "yes";
    case "eq-int" "(de main () (if (eq 3 3) 'yes 'no))" "yes";
    case "neq" "(de main () (if (neq 'a 'b) 'yes 'no))" "yes";
    case "pred-value" "(de main () (pairp '(1)))" "t";
    case "pred-value-nil" "(de main () (pairp 3))" "nil";
    case "numberp-value" "(de main () (numberp 7))" "t";
    Alcotest.test_case "wrong-arity-rejected" `Quick test_predicate_arity;
  ]

let control_cases =
  [
    case "cond"
      "(de main () (cond ((eq 1 2) 'a) ((eq 1 1) 'b) (t 'c)))" "b";
    case "cond-default" "(de main () (cond ((eq 1 2) 'a) (t 'c)))" "c";
    case "cond-value" "(de main () (cond ((memq 'b '(a b))) (t 'no)))"
      "(b)";
    case "and" "(de main () (and 1 2 3))" "3";
    case "and-nil" "(de main () (and 1 nil 3))" "nil";
    case "or" "(de main () (or nil nil 7))" "7";
    case "or-first" "(de main () (or 5 9))" "5";
    case "when" "(de main () (when (eq 1 1) 'a 'b))" "b";
    case "unless" "(de main () (unless (eq 1 2) 'b))" "b";
    case "while"
      "(de main () (let ((i 0) (s 0)) (while (< i 5) (setq s (+ s i)) \
       (incf i)) s))"
      "10";
    case "dotimes" "(de main () (let ((s 0)) (dotimes (i 5) (setq s (+ s i))) s))"
      "10";
    case "progn" "(de main () (progn 1 2 3))" "3";
    case "prog1" "(de main () (prog1 1 2 3))" "1";
    case "nested-let"
      "(de main () (let ((x 1)) (let ((y 2)) (let ((x 10)) (+ x y)))))" "12";
    case "setq-shadow"
      "(de main () (let ((x 1)) (let ((x 2)) (setq x 3)) x))" "1";
    case "deep-call"
      "(de f1 (x) (+ x 1)) (de f2 (x) (* (f1 x) 2))\n\
       (de main () (f2 (f2 (f2 1))))" "22";
    case "four-args" "(de f (a b c d) (- (+ a c) (+ b d)))\n\
                      (de main () (f 10 2 30 4))" "34";
    case "recursion-acc"
      "(de sum (l acc) (if (null l) acc (sum (cdr l) (+ acc (car l)))))\n\
       (de main () (sum '(1 2 3 4 5) 0))" "15";
  ]

let global_symbol_cases =
  [
    case "global" "(de main () (setq g 42) (+ g 1))" "43";
    case "global-init-nil" "(de main () (if (null gundefined) 'yes 'no))" "yes";
    case "plist" "(de main () (put 'x 'color 'red) (get 'x 'color))" "red";
    case "plist-update"
      "(de main () (put 'x 'k 1) (put 'x 'k 2) (get 'x 'k))" "2";
    case "plist-two-keys"
      "(de main () (put 'x 'a 1) (put 'x 'b 2) (+ (get 'x 'a) (get 'x 'b)))"
      "3";
    case "plist-miss" "(de main () (get 'x 'nope))" "nil";
    case "remprop"
      "(de main () (put 'x 'k 5) (remprop 'x 'k) (get 'x 'k))" "nil";
    case "funcall" "(de double (x) (* x 2))\n\
                    (de main () (funcall 'double 21))" "42";
    case "funcall-var"
      "(de inc (x) (+ x 1)) (de dec (x) (- x 1))\n\
       (de main () (let ((f (if nil 'inc 'dec))) (funcall f 10)))" "9";
    case "mapcar" "(de double (x) (* x 2))\n\
                   (de main () (mapcar 'double '(1 2 3)))" "(2 4 6)";
  ]

let vector_cases =
  [
    case "mkvect-getv" "(de main () (getv (mkvect 5) 3))" "nil";
    case "putv-getv"
      "(de main () (let ((v (mkvect 5))) (putv v 2 'x) (getv v 2)))" "x";
    case "putv-result" "(de main () (putv (mkvect 3) 0 99))" "99";
    case "vlen" "(de main () (vlen (mkvect 7)))" "7";
    case "vlen-zero" "(de main () (vlen (mkvect 0)))" "0";
    case "vector-sum"
      "(de main ()\n\
      \  (let ((v (mkvect 10)) (s 0))\n\
      \    (dotimes (i 10) (putv v i (* i i)))\n\
      \    (dotimes (i 10) (setq s (+ s (getv v i))))\n\
      \    s))"
      "285";
    case "vector-of-lists"
      "(de main () (let ((v (mkvect 2))) (putv v 0 '(1 2)) (car (getv v 0))))"
      "1";
  ]

let boxnum_cases =
  [
    case "makebox-unbox" "(de main () (unbox (makebox 17)))" "17";
    case_checked "box-add" "(de main () (unbox (+ (makebox 3) 4)))" "7";
    case_checked "box-add-rev" "(de main () (unbox (+ 4 (makebox 3))))" "7";
    case_checked "box-box" "(de main () (unbox (+ (makebox 3) (makebox 5))))"
      "8";
    case_checked "box-sub" "(de main () (unbox (- (makebox 10) 4)))" "6";
    case "box-neg-payload" "(de main () (unbox (makebox -9)))" "-9";
  ]

let suite =
  [
    ("lang.arith", arith_cases);
    ("lang.lists", list_cases);
    ("lang.predicates", predicate_cases);
    ("lang.control", control_cases);
    ("lang.globals", global_symbol_cases);
    ("lang.vectors", vector_cases);
    ("lang.boxnums", boxnum_cases);
  ]
