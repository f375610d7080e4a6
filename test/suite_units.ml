(* Unit tests for the lower layers: words, the reader, the expander, the
   tag schemes, the assembler/scheduler and the machine itself (via
   hand-written assembly programs). *)

module Word = Tagsim.Word
module Sexp = Tagsim.Sexp
module Expand = Tagsim.Expand
module Ast = Tagsim.Ast
module Scheme = Tagsim.Scheme
module Insn = Tagsim.Insn
module Reg = Tagsim.Reg
module Buf = Tagsim.Buf
module Sched = Tagsim.Sched
module Image = Tagsim.Image
module Machine = Tagsim.Machine
module Stats = Tagsim.Stats

(* --- Word --- *)

let test_word_basics () =
  Alcotest.(check int) "of_int wraps" 0 (Word.of_int 0x100000000);
  Alcotest.(check int) "to_signed negative" (-1) (Word.to_signed 0xFFFFFFFF);
  Alcotest.(check int) "add wraps" 0 (Word.add 0xFFFFFFFF 1);
  Alcotest.(check int) "sub wraps" 0xFFFFFFFF (Word.sub 0 1);
  Alcotest.(check int) "sra sign extends" 0xFFFFFFFF (Word.sra 0x80000000 31);
  Alcotest.(check int) "srl zero extends" 1 (Word.srl 0x80000000 31);
  Alcotest.(check int) "div truncates toward zero" Word.(of_int (-3))
    (Word.div (Word.of_int (-17)) 5);
  Alcotest.(check int) "rem sign follows dividend" Word.(of_int (-2))
    (Word.rem (Word.of_int (-17)) 5);
  Alcotest.(check int) "field extracts" 5
    (Word.field ~shift:27 ~width:5 (5 lsl 27));
  Alcotest.(check bool) "simm17 fits" true (Word.fits_simm ~width:17 65535);
  Alcotest.(check bool) "simm17 overflow" false
    (Word.fits_simm ~width:17 65536);
  Alcotest.(check int) "lui-style imm is 1 cycle" 1
    (Word.imm_cycles (3 lsl 27));
  Alcotest.(check int) "wide imm is 2 cycles" 2 (Word.imm_cycles 0x12345)

(* --- Sexp reader --- *)

let test_sexp_reader () =
  let p s = Sexp.to_string (Sexp.parse s) in
  Alcotest.(check string) "atom" "foo" (p "foo");
  Alcotest.(check string) "int" "-42" (p "-42");
  Alcotest.(check string) "nested" "(a (b c) 3)" (p "(a (b  c)\n 3)");
  Alcotest.(check string) "quote sugar" "(quote (a b))" (p "'(a b)");
  Alcotest.(check string) "comments" "(a b)" (p "(a ; comment\n b)");
  Alcotest.(check string) "nested quote" "(a (quote b))" (p "(a 'b)");
  Alcotest.(check int) "parse_all" 3
    (List.length (Sexp.parse_all "(a) (b) (c)"));
  Alcotest.check_raises "unbalanced"
    (Sexp.Parse_error "unterminated list") (fun () ->
      ignore (Sexp.parse "(a (b)"));
  (* '+' and '-' are symbols, not numbers *)
  (match Sexp.parse "-" with
  | Sexp.Sym "-" -> ()
  | _ -> Alcotest.fail "- should be a symbol");
  match Sexp.parse "1x" with
  | Sexp.Sym "1x" -> ()
  | _ -> Alcotest.fail "1x should be a symbol"

let test_expander () =
  let e src = Fmt.str "%a" Ast.pp (Expand.expr (Sexp.parse src)) in
  Alcotest.(check string) "cond" "(if 'a 'b (if 'c 'd 'nil))"
    (e "(cond ('a 'b) ('c 'd))");
  Alcotest.(check string) "and" "(if 'a 'b 'nil)" (e "(and 'a 'b)");
  Alcotest.(check string) "cxr" "(car (cdr x))" (e "(cadr x)");
  Alcotest.(check string) "nary plus" "(plus2 (plus2 '1 '2) '3)"
    (e "(+ 1 2 3)");
  Alcotest.(check string) "unary minus" "(difference2 '0 x)" (e "(- x)");
  Alcotest.(check string) "not" "(null x)" (e "(not x)");
  Alcotest.(check string) "push" "(setq l (cons x l))" (e "(push x l)");
  (* duplicate parameters are rejected *)
  Alcotest.check_raises "dup params"
    (Expand.Error "duplicate parameter x in f") (fun () ->
      ignore (Expand.program "(de f (x x) x)"))

(* --- Tag schemes --- *)

let test_scheme_encodings () =
  List.iter
    (fun scheme ->
      let name = scheme.Scheme.name in
      (* integer roundtrip at the extremes *)
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "%s int %d" name n)
            n
            (Scheme.decode_int scheme (Scheme.encode_int scheme n));
          Alcotest.(check bool)
            (Printf.sprintf "%s is_int %d" name n)
            true
            (Scheme.is_int_item scheme (Scheme.encode_int scheme n)))
        [ 0; 1; -1; 42; scheme.Scheme.int_min; scheme.Scheme.int_max ];
      (* pointers are not integers, and addresses roundtrip *)
      List.iter
        (fun ty ->
          let addr = 128 * scheme.Scheme.obj_align in
          let item = Scheme.encode_ptr scheme ty addr in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s not int" name (Scheme.ty_name ty))
            false
            (Scheme.is_int_item scheme item);
          Alcotest.(check int)
            (Printf.sprintf "%s %s addr" name (Scheme.ty_name ty))
            addr
            (Scheme.ptr_addr scheme item))
        [ Scheme.Pair; Scheme.Symbol; Scheme.Vector; Scheme.Boxnum ];
      (* out-of-range literals are rejected *)
      Alcotest.(check bool)
        (name ^ " range check") true
        (try
           ignore (Scheme.encode_int scheme (scheme.Scheme.int_max + 1));
           false
         with Invalid_argument _ -> true))
    Scheme.all

(* --- Assembler and machine, via hand-written programs. --- *)

let hw = Scheme.machine_hw ~mem_bytes:(1 lsl 20) Scheme.high5

let run_asm build =
  let b = Buf.create () in
  build b;
  let image = Image.assemble b in
  let m = Machine.create ~hw image in
  (Machine.run m, m)

(* A raw image with integer branch targets, bypassing the assembler and
   scheduler entirely: for testing exact machine semantics (delay slots,
   squashing, interlocks). *)
let raw_image ?(data = [||]) insns : Image.t =
  {
    Image.code =
      Array.of_list
        (List.map
           (fun insn ->
             { Image.insn; annot = Tagsim.Annot.plain; speculative = false })
           insns);
    code_symbols = Hashtbl.create 1;
    data_symbols = Hashtbl.create 1;
    data_words = data;
    data_end = 4 * Array.length data;
    source = [];
  }

let run_raw ?data insns =
  let m = Machine.create ~hw (raw_image ?data insns) in
  (Machine.run m, m)

let check_halt name expected outcome =
  match outcome with
  | Machine.Halted n -> Alcotest.(check int) name expected n
  | Machine.Aborted c -> Alcotest.failf "%s: aborted %d" name c

let test_machine_arith () =
  let outcome, _ =
    run_raw
      [
        Insn.Li (Reg.t0, 20);
        Insn.Li (Reg.t1, 22);
        Insn.Alu (Insn.Add, Reg.v0, Reg.t0, Reg.t1);
        Insn.Halt;
      ]
  in
  check_halt "add" 42 outcome;
  let outcome, _ =
    run_raw
      [
        Insn.Li (Reg.t0, -17);
        Insn.Alui (Insn.Rem, Reg.v0, Reg.t0, 5);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 2);
        Insn.Halt;
      ]
  in
  check_halt "rem" 0 outcome

let test_machine_branch_slots () =
  (* The two instructions in the slots of a (plain, taken) branch
     execute; the fall-through after them does not. *)
  let b cond =
    Insn.B
      ( { Insn.cond; rs = Reg.zero; rt = Reg.zero; squash = false;
          hint = Insn.No_hint },
        5 )
  in
  let outcome, _ =
    run_raw
      [
        Insn.Li (Reg.v0, 0);
        b Insn.Eq;
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 1);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 2);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 100);
        Insn.Halt;
      ]
  in
  check_halt "taken: slots only" 3 outcome;
  (* not taken: slots AND fall-through execute *)
  let outcome, _ =
    run_raw
      [
        Insn.Li (Reg.v0, 0);
        b Insn.Ne;
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 1);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 2);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 100);
        Insn.Halt;
      ]
  in
  check_halt "not taken: slots + fall-through" 103 outcome

let test_machine_squash () =
  (* Slots of a squashing branch are annulled when it is not taken, and
     charged as squashed cycles. *)
  let outcome, m =
    run_raw
      [
        Insn.Li (Reg.v0, 7);
        Insn.B
          ( { Insn.cond = Insn.Ne; rs = Reg.zero; rt = Reg.zero;
              squash = true; hint = Insn.No_hint },
            4 );
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 1);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 2);
        Insn.Halt;
      ]
  in
  check_halt "squash annuls" 7 outcome;
  Alcotest.(check int) "squash count" 2 (Machine.stats m).Stats.squashed;
  (* taken: the slots do execute *)
  let outcome, m =
    run_raw
      [
        Insn.Li (Reg.v0, 7);
        Insn.B
          ( { Insn.cond = Insn.Eq; rs = Reg.zero; rt = Reg.zero;
              squash = true; hint = Insn.No_hint },
            4 );
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 1);
        Insn.Alui (Insn.Add, Reg.v0, Reg.v0, 2);
        Insn.Halt;
      ]
  in
  check_halt "squash taken executes slots" 10 outcome;
  Alcotest.(check int) "no squash when taken" 0
    (Machine.stats m).Stats.squashed

let test_machine_load_interlock () =
  (* A load followed by an immediate use costs one extra cycle. *)
  let interlocks gap =
    let insns =
      [ Insn.Ld (Insn.Plain, Reg.t1, Reg.zero, 0) ]
      @ (if gap then [ Insn.Alui (Insn.Add, Reg.t2, Reg.zero, 1) ] else [])
      @ [ Insn.Alu (Insn.Add, Reg.v0, Reg.t1, Reg.zero); Insn.Halt ]
    in
    let _, m = run_raw ~data:[| 5 |] insns in
    (Machine.stats m).Stats.interlocks
  in
  Alcotest.(check int) "interlock charged" 1 (interlocks false);
  Alcotest.(check int) "no interlock with a gap" 0 (interlocks true);  (* The probe's register test agrees with [Insn.reads] on every
     constructor that reads a register, for every register. *)
  let br =
    { Insn.cond = Insn.Eq; rs = 3; rt = 4; squash = false; hint = Insn.No_hint }
  in
  List.iter
    (fun (i : int Insn.t) ->
      for r = 0 to Reg.count - 1 do
        Alcotest.(check bool) "reads_reg = List.mem r reads"
          (List.mem r (Insn.reads i)) (Insn.reads_reg i r)
      done)
    [
      Insn.Alu (Insn.Add, 2, 3, 4); Insn.Alui (Insn.Add, 2, 3, 1);
      Insn.Li (2, 1); Insn.La (2, 0); Insn.Mv (2, 3);
      Insn.Ld (Insn.Plain, 2, 3, 0); Insn.St (Insn.Plain, 3, 4, 0);
      Insn.B (br, 0);
      Insn.Bi ({ Insn.bi_cond = Insn.Eq; bi_rs = 3; bi_imm = 0;
                 bi_squash = false; bi_hint = Insn.No_hint }, 0);
      Insn.Btag ({ Insn.bt_neg = false; bt_rs = 3; bt_tag = 0;
                   bt_squash = false; bt_hint = Insn.No_hint }, 0);
      Insn.J 0; Insn.Jal 0; Insn.Jr 3; Insn.Jalr 3;
      Insn.Add_gen (2, 3, 4); Insn.Sub_gen (2, 3, 4); Insn.Settd 3;
      Insn.Rett; Insn.Trap 0; Insn.Halt; Insn.Nop;
    ]

let test_machine_call () =
  (* jal: ra = address after the two delay slots; jr returns there. *)
  let outcome, _ =
    run_raw
      [
        (* 0 *) Insn.Li (Reg.a0, 5);
        (* 1 *) Insn.Jal 5;
        (* 2 *) Insn.Nop;
        (* 3 *) Insn.Nop;
        (* 4 *) Insn.Halt;
        (* 5 *) Insn.Alu (Insn.Add, Reg.v0, Reg.a0, Reg.a0);
        (* 6 *) Insn.Jr Reg.ra;
        (* 7 *) Insn.Nop;
        (* 8 *) Insn.Nop;
      ]
  in
  check_halt "call/return" 10 outcome

let test_machine_tag_ops () =
  (* Btag and checked loads behave per the high5 geometry. *)
  let pair_tag = Scheme.high5.Scheme.tag Scheme.Pair in
  let item = Scheme.encode_ptr Scheme.high5 Scheme.Pair 256 in
  let outcome, _ =
    run_raw
      [
        (* 0 *) Insn.Li (Reg.t0, item);
        (* 1 *)
        Insn.Btag
          ( { Insn.bt_neg = false; bt_rs = Reg.t0; bt_tag = pair_tag;
              bt_squash = false; bt_hint = Insn.No_hint },
            6 );
        (* 2 *) Insn.Nop;
        (* 3 *) Insn.Nop;
        (* 4 *) Insn.Li (Reg.v0, 0);
        (* 5 *) Insn.Halt;
        (* 6 *) Insn.Li (Reg.v0, 1);
        (* 7 *) Insn.Halt;
      ]
  in
  check_halt "btag matches" 1 outcome;
  (* a checked load with the wrong expected tag aborts; with the right
     tag it reads through the masked address *)
  let outcome, _ =
    run_raw
      [
        Insn.Li (Reg.t0, item);
        Insn.Ld (Insn.Checked (pair_tag + 1), Reg.v0, Reg.t0, 0);
        Insn.Halt;
      ]
  in
  (match outcome with
  | Machine.Aborted c when c = Machine.err_type -> ()
  | Machine.Aborted c -> Alcotest.failf "aborted %d" c
  | Machine.Halted _ -> Alcotest.fail "checked load did not trap");
  let data = Array.make 70 0 in
  data.(64) <- 77;
  (* word index of byte address 256 *)
  let outcome, _ =
    run_raw ~data
      [
        Insn.Li (Reg.t0, item);
        Insn.Ld (Insn.Checked pair_tag, Reg.v0, Reg.t0, 0);
        Insn.Halt;
      ]
  in
  check_halt "checked load reads" 77 outcome

let test_assembler_errors () =
  let assemble build =
    let b = Buf.create () in
    build b;
    ignore (Image.assemble b)
  in
  Alcotest.check_raises "undefined label"
    (Image.Error "undefined code label nowhere") (fun () ->
      assemble (fun b -> Buf.emit b (Insn.J "nowhere")));
  Alcotest.check_raises "duplicate label" (Image.Error "duplicate label l")
    (fun () ->
      assemble (fun b ->
          Buf.label b "l";
          Buf.label b "l";
          Buf.emit b Insn.Halt))

let test_sched_hoisting () =
  (* Independent instructions before a jump end up in its slots; the
     machine still computes the same value. *)
  let b = Buf.create () in
  Buf.emit b (Insn.Li (Reg.t0, 1));
  Buf.emit b (Insn.Li (Reg.t1, 2));
  Buf.emit b (Insn.J "next");
  Buf.label b "next";
  Buf.emit b (Insn.Alu (Insn.Add, Reg.v0, Reg.t0, Reg.t1));
  Buf.emit b Insn.Halt;
  let image = Image.assemble b in
  (* no Nop should have been inserted for the jump's slots *)
  let noops =
    Array.fold_left
      (fun acc e -> if e.Image.insn = Insn.Nop then acc + 1 else acc)
      0 image.Image.code
  in
  Alcotest.(check int) "slots filled by hoisting" 0 noops;
  let m = Machine.create ~hw image in
  match Machine.run m with
  | Machine.Halted 3 -> ()
  | Machine.Halted n -> Alcotest.failf "got %d" n
  | Machine.Aborted c -> Alcotest.failf "aborted %d" c

(* --- Word memory: only the touched prefix is materialised, but the
   whole [mem_bytes] address space behaves as zero-filled memory. --- *)

let hw4 = Scheme.machine_hw Scheme.high5 (* the default 4 MiB *)
let mem4 = hw4.Machine.mem_bytes
let image_data = [| 11; 22; 33 |]

let test_memory_untouched_zero () =
  let m = Machine.create ~hw:hw4 (raw_image ~data:image_data [ Insn.Halt ]) in
  Alcotest.(check (list int))
    "loaded data" (Array.to_list image_data)
    (List.map (Machine.peek m) [ 0; 4; 8 ]);
  List.iter
    (fun addr ->
      Alcotest.(check int) (Printf.sprintf "word at %d" addr) 0
        (Machine.peek m addr))
    [ 12; 4096; 4100; mem4 / 2; mem4 / 2 + 4; mem4 - 8; mem4 - 4 ]

let test_memory_growth () =
  let m = Machine.create ~hw:hw4 (raw_image ~data:image_data [ Insn.Halt ]) in
  Machine.poke m 12 44;
  Machine.poke m 8192 55;
  Machine.poke m (mem4 - 4) 66;
  Alcotest.(check (list int))
    "earlier contents survive growth"
    [ 11; 22; 33; 44; 55 ]
    (List.map (Machine.peek m) [ 0; 4; 8; 12; 8192 ]);
  Alcotest.(check int) "last word" 66 (Machine.peek m (mem4 - 4));
  Alcotest.(check int) "below last word" 0 (Machine.peek m (mem4 - 8))

let test_memory_faults () =
  let m = Machine.create ~hw:hw4 (raw_image ~data:image_data [ Insn.Halt ]) in
  let fault what f expected =
    match f () with
    | _ -> Alcotest.failf "%s: no fault" what
    | exception Machine.Machine_error msg ->
        Alcotest.(check string) what expected msg
  in
  List.iter
    (fun addr ->
      fault
        (Printf.sprintf "load %d" addr)
        (fun () -> ignore (Machine.peek m addr))
        (Printf.sprintf "load fault at %d" addr);
      fault
        (Printf.sprintf "store %d" addr)
        (fun () -> Machine.poke m addr 1)
        (Printf.sprintf "store fault at %d" addr))
    [ mem4; mem4 + 4; -4 ];
  (* a faulting store neither grows nor writes memory *)
  Alcotest.(check int) "top word still 0" 0 (Machine.peek m (mem4 - 4))

(* Creating a machine costs the image's data, not the address space:
   zero-filling all [mem_bytes / 4] words would allocate 64x the limit. *)
let test_memory_create_alloc () =
  let image = raw_image ~data:image_data [ Insn.Halt ] in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Machine.create ~hw:hw4 image));
  let words =
    int_of_float (Gc.allocated_bytes () -. before) / (Sys.word_size / 8)
  in
  if words >= mem4 / 64 then
    Alcotest.failf "Machine.create allocated %d words (limit %d)" words
      (mem4 / 64)

let test_stats_merge_equal () =
  let module Annot = Tagsim.Annot in
  let sample k =
    (* two distinguishable stats records built from scaled charges *)
    let s = Stats.create () in
    Stats.charge s Annot.plain (2 * k);
    Stats.charge s (Annot.make ~checking:true (Annot.Check Annot.List_op)) k;
    Stats.charge s (Annot.make Annot.Insert) (3 * k);
    for _ = 1 to k do
      Stats.count_insn s Insn.K_alu;
      Stats.count_insn s Insn.K_load
    done;
    s.Stats.insns <- s.Stats.insns + (5 * k);
    s.Stats.squashed <- k;
    s.Stats.interlocks <- 2 * k;
    s.Stats.traps <- k;
    s.Stats.trap_cycles <- 4 * k;
    s
  in
  let a = sample 1 and b = sample 2 in
  Alcotest.(check bool) "equal: reflexive" true (Stats.equal a (sample 1));
  Alcotest.(check bool) "equal: distinguishes" false (Stats.equal a b);
  let dst = sample 1 in
  Stats.merge dst b;
  Alcotest.(check bool) "merge accumulates" true (Stats.equal dst (sample 3));
  Alcotest.(check int) "merge sums cycles"
    (Stats.total a + Stats.total b)
    (Stats.total dst);
  Alcotest.(check int) "merge sums insns"
    (Stats.executed_insns a + Stats.executed_insns b)
    (Stats.executed_insns dst);
  Alcotest.(check int) "merge sums klass counts"
    (Stats.klass_count a Insn.K_alu + Stats.klass_count b Insn.K_alu)
    (Stats.klass_count dst Insn.K_alu);
  (* a single differing array cell must break equality *)
  let c = sample 1 in
  Stats.count_insn c Insn.K_jump;
  Alcotest.(check bool) "equal: sees klass_insns" false
    (Stats.equal (sample 1) c);
  let d = sample 1 in
  Stats.charge d (Annot.make Annot.Gc_work) 1;
  Alcotest.(check bool) "equal: sees kind_cycles" false
    (Stats.equal (sample 1) d)

let suite =
  [
    ( "units",
      [
        Alcotest.test_case "word" `Quick test_word_basics;
        Alcotest.test_case "sexp-reader" `Quick test_sexp_reader;
        Alcotest.test_case "expander" `Quick test_expander;
        Alcotest.test_case "scheme-encodings" `Quick test_scheme_encodings;
        Alcotest.test_case "machine-arith" `Quick test_machine_arith;
        Alcotest.test_case "machine-branch-slots" `Quick
          test_machine_branch_slots;
        Alcotest.test_case "machine-squash" `Quick test_machine_squash;
        Alcotest.test_case "machine-interlock" `Quick
          test_machine_load_interlock;
        Alcotest.test_case "machine-call" `Quick test_machine_call;
        Alcotest.test_case "machine-tag-ops" `Quick test_machine_tag_ops;
        Alcotest.test_case "assembler-errors" `Quick test_assembler_errors;
        Alcotest.test_case "sched-hoisting" `Quick test_sched_hoisting;
        Alcotest.test_case "stats-merge-equal" `Quick test_stats_merge_equal;
        Alcotest.test_case "memory-untouched-zero" `Quick
          test_memory_untouched_zero;
        Alcotest.test_case "memory-growth" `Quick test_memory_growth;
        Alcotest.test_case "memory-faults" `Quick test_memory_faults;
        Alcotest.test_case "memory-create-alloc" `Quick
          test_memory_create_alloc;
      ] );
  ]
