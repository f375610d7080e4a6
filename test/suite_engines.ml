(* Differential engine testing.  The traced engine (Tagsim.Trace: cold
   code on the reference [step], hot paths in compiled superblock
   traces) must be observationally identical to the
   reference interpreter, both at its default promotion threshold and at
   a threshold of 2, where nearly every path that repeats runs traced:
   every registry benchmark is compiled once per (scheme x named
   support) configuration and simulated on all three legs, and the
   result value, abort status, GC counters and every Stats counter must
   match exactly.  Targeted raw images then exercise the dynamic-exit
   paths, where the pre-summed trace statistics must be unwound:
   generic-arithmetic traps with a [rett] resume, squashing branches,
   fuel exhaustion (finished by the reference [step]), checked-load type
   traps, division by zero, memory faults raised mid-trace, load-use
   interlocks resolved statically or probed at trace entry, hot-loop
   trace promotion (a one-block loop included), and every superblock
   side exit (branch misprediction, squash annulment both ways,
   indirect-jump guard failure, traps and fuel exhaustion mid-trace).
   Patched images put what the assembler never emits into delay
   slots — a generic add in a hot loop's slot, a label on such a branch,
   a control instruction, a generic-arithmetic trap, slots past the end
   of code — which no trace grows through and the reference [step]
   runs, with identical machine errors.  Every machine owns its trace
   state, and its statistics are counted per machine and folded when
   [run] returns: one program run twice, and one machine resumed in fuel
   slices, must each match the reference.  The parallel measurement
   pool must likewise be oblivious to the worker count. *)

module P = Tagsim.Program
module Stats = Tagsim.Stats
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Run = Tagsim.Analysis.Run
module B = Tagsim.Benchmarks
module Machine = Tagsim.Machine
module Metrics = Tagsim.Metrics
module Trace = Tagsim.Trace
module Insn = Tagsim.Insn
module Reg = Tagsim.Reg
module Buf = Tagsim.Buf
module Sched = Tagsim.Sched
module Image = Tagsim.Image
module L = Tagsim.Layout

(* A registry count, read by name. *)
let count name = Metrics.(get (counter name))

(* The conservation laws of [Stats] hold on both results. *)
let check_laws name (s : Stats.t) =
  match Stats.broken_law s with
  | Some law -> Alcotest.failf "%s: broken law %s" name law
  | None -> ()

let check_result name (a : P.result) (b : P.result) =
  check_laws (name ^ " (expected)") a.P.stats;
  check_laws name b.P.stats;
  Alcotest.(check (option string))
    (name ^ ": abort") a.P.abort b.P.abort;
  Alcotest.(check (option string))
    (name ^ ": value")
    (Option.map P.hval_to_string a.P.value)
    (Option.map P.hval_to_string b.P.value);
  Alcotest.(check int)
    (name ^ ": cycles")
    (Stats.total a.P.stats) (Stats.total b.P.stats);
  Alcotest.(check int)
    (name ^ ": insns")
    (Stats.executed_insns a.P.stats)
    (Stats.executed_insns b.P.stats);
  Alcotest.(check bool)
    (name ^ ": all stats counters") true
    (Stats.equal a.P.stats b.P.stats);
  Alcotest.(check int)
    (name ^ ": gc collections") a.P.gc_collections b.P.gc_collections;
  Alcotest.(check int)
    (name ^ ": gc bytes copied") a.P.gc_bytes_copied b.P.gc_bytes_copied

(* [P.run] on the traced engine at promotion threshold 2, so traces form
   on the second entry of a leader: the machine is loaded bare and
   attached here, since [P.load] attaches at the default threshold. *)
let run_hot (program : P.t) : P.result =
  let m, map = P.load ~engine:`Reference program in
  Trace.attach ~threshold:2 m;
  let value, abort =
    match Machine.run m with
    | Machine.Halted w -> (Some (P.decode program m w), None)
    | Machine.Aborted code -> (None, Some (P.abort_message code))
  in
  let peek lbl = Machine.peek m (Image.data_address program.P.image lbl) in
  {
    P.value;
    abort;
    stats = Machine.stats m;
    gc_collections = peek L.l_gc_count;
    gc_bytes_copied = peek L.l_gc_copied;
    map;
  }

(* The full configuration matrix: every tag scheme under every named
   hardware support row, with run-time checking enabled (checking emits
   the interesting tag sequences and trap paths).  The front end is
   analysed once per program and shared across the matrix. *)
let test_engines_agree (entry : B.entry) () =
  let fe = P.analyze entry.B.source in
  List.iter
    (fun (scheme : Scheme.t) ->
      List.iter
        (fun (sname, support) ->
          let support = Support.with_checking support in
          let cname = scheme.Scheme.name ^ "/" ^ sname in
          let program =
            P.compile_frontend ~sizes:entry.B.sizes ~scheme ~support fe
          in
          let reference = P.run ~engine:`Reference program in
          let traced = P.run ~engine:`Traced program in
          let hot = run_hot program in
          let nm leg = entry.B.name ^ " " ^ cname ^ " " ^ leg in
          check_result (nm "hot") reference hot;
          check_result (nm "tra") reference traced;
          Alcotest.(check (option string))
            (nm "" ^ ": no abort") None reference.P.abort)
        Support.all_named)
    Scheme.all

(* --- Targeted raw images: the dynamic exits of the traced engine. --- *)

let scheme = Scheme.high5
let hw = Scheme.machine_hw ~mem_bytes:(1 lsl 20) scheme

(* Assemble [build b] without the slot scheduler (slots are laid out by
   hand) and run it under one engine. *)
let assemble ?(sched = Sched.off) build =
  let b = Buf.create () in
  build b;
  Image.assemble ~sched b

let run_raw ?fuel ?threshold ?(hw = hw) ?(setup = fun _ -> ()) image engine =
  let m = Machine.create ?fuel ~hw image in
  (match engine with
  | `Reference -> ()
  | `Traced -> Trace.attach ?threshold m);
  Machine.set_reg m Reg.rmask scheme.Scheme.data_mask;
  setup m;
  let outcome =
    try `Done (Machine.run m) with
    | Machine.Out_of_fuel -> `Fuel
    | Machine.Machine_error msg -> `Error msg
  in
  (outcome, Machine.stats m)

let outcome_str = function
  | `Fuel -> "out-of-fuel"
  | `Error msg -> "machine error: " ^ msg
  | `Done (Machine.Halted v) -> Printf.sprintf "halted %d" v
  | `Done (Machine.Aborted c) -> Printf.sprintf "aborted %d" c

(* Run three legs; reference is ground truth.  The hot leg runs the
   traced engine at threshold 2, so anything that repeats is traced; the
   traced leg uses [threshold] (the default unless given), which tests
   lower so short unit loops get hot. *)
let check_three name ?fuel ?threshold ?hw ?setup image =
  let ro, rs = run_raw ?fuel ?hw ?setup image `Reference in
  let ho, hs = run_raw ?fuel ~threshold:2 ?hw ?setup image `Traced in
  let to_, ts = run_raw ?fuel ?threshold ?hw ?setup image `Traced in
  Alcotest.(check string)
    (name ^ ": hot outcome") (outcome_str ro) (outcome_str ho);
  Alcotest.(check string)
    (name ^ ": traced outcome") (outcome_str ro) (outcome_str to_);
  Alcotest.(check bool) (name ^ ": hot stats") true (Stats.equal rs hs);
  Alcotest.(check bool) (name ^ ": traced stats") true (Stats.equal rs ts);
  (ro, rs)

let expect_outcome name expected (outcome, _) =
  Alcotest.(check string) (name ^ ": outcome") expected (outcome_str outcome)

let add = Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1)

(* A generic-arithmetic trap in the middle of a straight line, with a
   [settd]-patching handler and a [rett] resume: the trap keeps its
   executed prefix's statistics (including the trap's own issue cycle),
   charges the trap overhead, and resumes at [epc] — which is always a
   block leader. *)
let test_garith_rett () =
  let int_item n = Scheme.encode_int scheme n in
  let pair_item = Scheme.encode_ptr scheme Scheme.Pair (256 * 8) in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, int_item 5));
        Buf.emit b (Insn.Li (Reg.t1, pair_item));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t2, Reg.t0, Reg.t0));
        Buf.emit b (Insn.Add_gen (Reg.t3, Reg.t0, Reg.t1));
        (* resume point: the handler patched t3 to 42 *)
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t3, Reg.t3, 1));
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t3));
        Buf.emit b Insn.Halt;
        Buf.label b "gadd";
        Buf.emit b (Insn.Li (Reg.k0, 42));
        Buf.emit b (Insn.Settd Reg.k0);
        Buf.emit b Insn.Rett)
  in
  let setup m =
    Machine.set_gen_handlers m
      ~add:(Image.code_address image "gadd")
      ~sub:(Image.code_address image "gadd")
  in
  let r = check_three "garith-rett" ~setup image in
  expect_outcome "garith-rett" "halted 43" r;
  Alcotest.(check int) "garith-rett: one trap" 1 (snd r).Stats.traps;
  Alcotest.(check int) "garith-rett: trap overhead cycles"
    hw.Machine.trap_overhead (snd r).Stats.trap_cycles;
  Alcotest.(check int) "garith-rett: overhead charged to generic arithmetic"
    hw.Machine.trap_overhead (Stats.generic_arith (snd r))

(* Squashing branches, both ways.  The assembler inserts the two delay
   slots itself (no-ops under [Sched.off]): a taken squashing branch
   executes its slots, a not-taken one annuls them — two cycles charged
   to the branch's slot, no instructions retired. *)
let test_squash_branch () =
  let branch cond target =
    Insn.B
      ( { Insn.cond; rs = Reg.t0; rt = Reg.t1; squash = true;
          hint = Insn.No_hint },
        target )
  in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 1));
        Buf.emit b (Insn.Li (Reg.t1, 1));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        (* taken squashing branch: both (no-op) slots execute *)
        Buf.emit b (branch Insn.Eq "l1");
        Buf.label b "l1";
        (* not-taken squashing branch: both slots annulled *)
        Buf.emit b (branch Insn.Ne "bad");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt;
        Buf.label b "bad";
        Buf.emit b (Insn.Trap 1))
  in
  let r = check_three "squash-branch" image in
  expect_outcome "squash-branch" "halted 0" r;
  Alcotest.(check int) "squash-branch: two squashed slots" 2
    (snd r).Stats.squashed;
  (* 3 li + taken branch + its 2 slot no-ops + not-taken branch + mv +
     halt; the annulled slots retire nothing *)
  Alcotest.(check int) "squash-branch: nine retirements" 9
    (Stats.executed_insns (snd r));
  (* one cycle per retirement, plus the two annulled slots *)
  Alcotest.(check int) "squash-branch: eleven cycles" 11
    (Stats.total (snd r))

(* Fuel exhaustion in the middle of a straight line: the traced engine
   must stop at the identical retirement count. *)
let test_fuel_exhaustion () =
  let image =
    assemble (fun b ->
        for _ = 1 to 10 do
          Buf.emit b add
        done;
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "fuel-mid-block" ~fuel:5 image in
  expect_outcome "fuel-mid-block" "out-of-fuel" r;
  Alcotest.(check int) "fuel-mid-block: five retirements" 5
    (Stats.executed_insns (snd r));
  (* one fuel step past the block's end: the halt still fires *)
  expect_outcome "fuel-after-block" "halted 10"
    (check_three "fuel-after-block" ~fuel:12 image)

(* A checked load whose address operand carries the wrong tag aborts
   after its executed prefix (the load's own issue cycle stands — the
   reference charges before it traps). *)
let test_checked_load_trap () =
  let pair_tag = scheme.Scheme.tag Scheme.Pair in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, Scheme.encode_int scheme 7));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 5));
        Buf.emit b (Insn.Ld (Insn.Checked pair_tag, Reg.t1, Reg.t0, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 100));
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "checked-load-trap" image in
  expect_outcome "checked-load-trap"
    (Printf.sprintf "aborted %d" Machine.err_type)
    r;
  Alcotest.(check int) "checked-load-trap: four retirements" 4
    (Stats.executed_insns (snd r))

(* Division by zero mid-line: the divide retires (it is counted) but
   its cycles are never charged. *)
let test_div_zero () =
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 10));
        Buf.emit b (Insn.Li (Reg.t1, 0));
        Buf.emit b (Insn.Alu (Insn.Div, Reg.t2, Reg.t0, Reg.t1));
        Buf.emit b add;
        Buf.emit b Insn.Halt)
  in
  let r = check_three "div-zero" image in
  expect_outcome "div-zero" (Printf.sprintf "aborted %d" Machine.err_div0) r;
  Alcotest.(check int) "div-zero: three retirements" 3
    (Stats.executed_insns (snd r))

(* Load-use interlocks between adjacent instructions, on a straight
   line and across a block boundary. *)
let test_interlocks () =
  let in_block =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 7));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.v0, Reg.t2, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "interlock-in-block" in_block in
  expect_outcome "interlock-in-block" "halted 14" r;
  Alcotest.(check int) "interlock-in-block: one interlock" 1
    (snd r).Stats.interlocks;
  (* the interlock retires one no-op, as if the assembler had inserted
     it: six instructions plus the no-op, one cycle each *)
  Alcotest.(check int) "interlock-in-block: one no-op" 1
    (Stats.klass_count (snd r) Insn.K_nop);
  Alcotest.(check int) "interlock-in-block: seven retirements" 7
    (Stats.executed_insns (snd r));
  Alcotest.(check int) "interlock-in-block: seven cycles" 7
    (Stats.total (snd r));
  (* A code label is a block leader, so it splits the straight line
     between the load and its use: the interlock crosses the block
     boundary, where [step] probes it, or the dynamic probe at a trace
     entry when a trace heads the label. *)
  let across_blocks =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 9));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.label b "l";
        Buf.emit b (Insn.Alu (Insn.Add, Reg.v0, Reg.t2, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "interlock-across-blocks" across_blocks in
  expect_outcome "interlock-across-blocks" "halted 18" r;
  Alcotest.(check int) "interlock-across-blocks: one interlock" 1
    (snd r).Stats.interlocks

(* Attaching the traced engine twice must not rebuild: the trace state
   stays physically the same, threshold included. *)
let test_attach_idempotent () =
  let image = assemble (fun b -> Buf.emit b Insn.Halt) in
  let m = Machine.create ~hw image in
  Trace.attach m;
  let state (m : Machine.t) =
    match m.Machine.tstate with
    | Some ts -> ts
    | None -> Alcotest.fail "attach installed no trace state"
  in
  let ts = state m in
  Trace.attach ~threshold:2 m;
  Alcotest.(check bool) "trace state reused" true (ts == state m);
  Alcotest.(check int) "threshold kept" Trace.default_threshold
    (state m).Machine.ts_threshold

(* --- Superblock traces: promotion, side exits, exactness. --- *)

let branch ?(squash = false) cond rs rt target =
  Insn.B ({ Insn.cond; rs; rt; squash; hint = Insn.No_hint }, target)

(* A two-block counted loop (the body is split by a jump, so its trace
   crosses a junction): [t2] counts iterations, the back branch falls
   through after [n] of them. *)
let counted_loop ?squash n =
  assemble (fun b ->
      Buf.emit b (Insn.Li (Reg.t0, 0));
      Buf.emit b (Insn.Li (Reg.t1, n));
      Buf.emit b (Insn.Li (Reg.t2, 0));
      Buf.label b "loop";
      Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
      Buf.emit b (Insn.J "mid");
      Buf.label b "mid";
      Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
      Buf.emit b (branch ?squash Insn.Ne Reg.t0 Reg.t1 "loop");
      Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
      Buf.emit b Insn.Halt)

let trace_count (m : Machine.t) =
  match m.Machine.tstate with
  | None -> 0
  | Some ts ->
      Array.fold_left
        (fun n t -> if Option.is_some t then n + 1 else n)
        0 ts.Machine.ts_traces

(* Hot-threshold promotion: a loop executing under the threshold stays
   on the interpreter (no trace), over it gets a superblock — and either
   way the statistics match the reference exactly. *)
let test_trace_promotion () =
  let image = counted_loop 50 in
  let run_and_count threshold =
    let m = Machine.create ~hw image in
    Trace.attach ~threshold m;
    Machine.set_reg m Reg.rmask scheme.Scheme.data_mask;
    ignore (Machine.run m);
    trace_count m
  in
  Alcotest.(check int) "cold loop: no trace" 0
    (run_and_count 1_000_000);
  Alcotest.(check bool) "hot loop: trace formed" true (run_and_count 4 > 0);
  let names = [ "trace.formed"; "trace.entered"; "trace.in_trace" ] in
  let tt0 = List.map count names in
  let r = check_three "trace-promotion" ~threshold:4 image in
  expect_outcome "trace-promotion" "halted 50" r;
  Alcotest.(check bool) "trace counters advanced" true
    (List.for_all2 ( < ) tt0 (List.map count names))

(* The loop's final iteration mispredicts the back branch: a side exit
   must roll the pre-summed trace statistics back to the exact per-block
   deltas. *)
let test_trace_side_exit () =
  let exits0 = count "trace.side_exits" in
  let r = check_three "trace-side-exit" ~threshold:4 (counted_loop 37) in
  expect_outcome "trace-side-exit" "halted 37" r;
  Alcotest.(check bool) "side exit taken" true
    (count "trace.side_exits" > exits0)

(* A squashing back branch: the trace pre-sums the slots of the
   expected taken path; the final not-taken iteration side-exits and
   must replace them with the annul accounting (2 squashed cycles). *)
let test_trace_squash_taken () =
  let r =
    check_three "trace-squash-taken" ~threshold:4
      (counted_loop ~squash:true 29)
  in
  expect_outcome "trace-squash-taken" "halted 29" r;
  Alcotest.(check int) "trace-squash-taken: one annulled pair" 2
    (snd r).Stats.squashed

(* The opposite polarity: a squashing exit branch that is almost never
   taken.  The trace pre-sums the annul accounting of the expected
   fall-through; the final taken iteration must undo it, charge the
   slots as executed, and run them on the way out. *)
let test_trace_squash_fall () =
  let n = 23 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch ~squash:true Insn.Eq Reg.t0 Reg.t1 "done");
        Buf.emit b (Insn.J "loop");
        Buf.label b "done";
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "trace-squash-fall" ~threshold:4 image in
  expect_outcome "trace-squash-fall" (Printf.sprintf "halted %d" n) r;
  (* every not-taken iteration annuls the two slots *)
  Alcotest.(check int) "trace-squash-fall: annulled pairs" (2 * (n - 1))
    (snd r).Stats.squashed

(* An indirect jump whose target is loaded from a dispatch table: the
   trace guards on the dominant target, and the final iteration (whose
   table entry points at the exit) must fail the guard and side-exit
   with exact rollback. *)
let test_trace_indirect () =
  let n = 31 in
  let table = 2048 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.emit b (Insn.Li (Reg.t4, table));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t3, Reg.t4, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t4, Reg.t4, 4));
        Buf.emit b (Insn.Jr Reg.t3);
        Buf.label b "done";
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let setup m =
    let loop = Image.code_address image "loop" in
    let done_ = Image.code_address image "done" in
    for i = 0 to n - 2 do
      Machine.poke m (table + (4 * i)) loop
    done;
    Machine.poke m (table + (4 * (n - 1))) done_
  in
  let r = check_three "trace-indirect" ~threshold:4 ~setup image in
  expect_outcome "trace-indirect" (Printf.sprintf "halted %d" n) r

(* Division by zero on a late iteration: the abort lands mid-trace and
   the unexecuted suffix (including the divide's own cycles) must be
   unwound. *)
let test_trace_div_zero () =
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, 20));
        Buf.emit b (Insn.Li (Reg.t6, 100));
        Buf.label b "loop";
        Buf.emit b (Insn.Alu (Insn.Sub, Reg.t4, Reg.t1, Reg.t0));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        (* t4 = 20 - t0: reaches zero at t0 = 20, well before the
           (never-satisfied) loop bound of 100 *)
        Buf.emit b (Insn.Alu (Insn.Div, Reg.t5, Reg.t1, Reg.t4));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t6 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt)
  in
  let r = check_three "trace-div-zero" ~threshold:4 image in
  expect_outcome "trace-div-zero"
    (Printf.sprintf "aborted %d" Machine.err_div0)
    r

(* A generic-arithmetic trap on the last iteration, with a settd/rett
   handler: the trap side-exits the trace, the handler patches the
   result, and execution resumes at [epc] mid-loop. *)
let test_trace_garith () =
  let n = 27 in
  let table = 2048 in
  let int_item k = Scheme.encode_int scheme k in
  let pair_item = Scheme.encode_ptr scheme Scheme.Pair (256 * 8) in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.Li (Reg.t4, table));
        Buf.emit b (Insn.Li (Reg.t6, int_item 1));
        Buf.label b "loop";
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t3, Reg.t4, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t4, Reg.t4, 4));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        Buf.emit b (Insn.Add_gen (Reg.t5, Reg.t3, Reg.t6));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt;
        Buf.label b "gadd";
        Buf.emit b (Insn.Li (Reg.k0, int_item 42));
        Buf.emit b (Insn.Settd Reg.k0);
        Buf.emit b Insn.Rett)
  in
  let setup m =
    for i = 0 to n - 2 do
      Machine.poke m (table + (4 * i)) (int_item i)
    done;
    Machine.poke m (table + (4 * (n - 1))) pair_item;
    Machine.set_gen_handlers m
      ~add:(Image.code_address image "gadd")
      ~sub:(Image.code_address image "gadd")
  in
  let r = check_three "trace-garith" ~threshold:4 ~setup image in
  expect_outcome "trace-garith" (Printf.sprintf "halted %d" n) r;
  Alcotest.(check int) "trace-garith: one trap" 1 (snd r).Stats.traps

(* A load scheduled into the second delay slot of a hot back branch:
   inside the trace the interlock on the next segment's first
   instruction must be resolved statically across the junction (the
   reference probes it dynamically at every block entry). *)
let test_trace_cross_interlock () =
  let n = 25 in
  let hoist_only =
    { Sched.hoist = true; fill_unlikely = false; squash_likely = false }
  in
  let image =
    assemble ~sched:hoist_only (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 7));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Li (Reg.t5, 0));
        Buf.emit b (Insn.Li (Reg.t6, n));
        Buf.emit b (Insn.Li (Reg.t7, 7));
        Buf.emit b (Insn.Li (Reg.t2, 7));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t5, Reg.t5, 1));
        (* hoist fodder: both land in the back branch's slots, the
           load second *)
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t8, Reg.t7, Reg.t7));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.emit b (branch Insn.Ne Reg.t5 Reg.t6 "mid");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t5));
        Buf.emit b Insn.Halt;
        Buf.label b "mid";
        (* reads the just-loaded t2 as the first instruction after the
           junction: one interlock per iteration *)
        Buf.emit b (branch Insn.Eq Reg.t2 Reg.t7 "loop");
        Buf.emit b (Insn.Trap 1))
  in
  let r = check_three "trace-cross-interlock" ~threshold:4 image in
  expect_outcome "trace-cross-interlock" (Printf.sprintf "halted %d" n) r;
  Alcotest.(check bool) "trace-cross-interlock: interlocks probed" true
    ((snd r).Stats.interlocks >= n - 2)

(* Fuel exhaustion while the loop is running traced: the traced engine
   pre-pays a whole trace, so it must fall back to the reference [step]
   and stop at the identical retirement count. *)
let test_trace_fuel () =
  let r = check_three "trace-fuel" ~threshold:4 ~fuel:97 (counted_loop 50) in
  expect_outcome "trace-fuel" "out-of-fuel" r;
  let _, rs = run_raw ~fuel:97 (counted_loop 50) `Reference in
  Alcotest.(check int) "trace-fuel: retirements"
    (Stats.executed_insns rs)
    (Stats.executed_insns (snd r))

(* A machine error raised inside a trace: a hot two-block loop advances
   a pointer by [1 lsl 14] a turn until its access leaves memory.  The
   error must leave the statistics of exactly the instructions that
   retired, the faulting access included, as the reference does.  A
   plain-mode access raises "unmasked address"; a tag-ignoring one whose
   address mask is wider than memory faults in the memory access. *)
let test_trace_mem_fault () =
  let faulting access =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t4, 0));
        Buf.emit b (Insn.Li (Reg.t6, -1));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        Buf.emit b access;
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t4, Reg.t4, 1 lsl 14));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t6 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt)
  in
  let expect_error name ?hw access prefix =
    let r = check_three name ~threshold:2 ?hw (faulting access) in
    match fst r with
    | `Error msg when String.starts_with ~prefix msg -> ()
    | o -> Alcotest.failf "%s: %s, expected %s..." name (outcome_str o) prefix
  in
  expect_error "fault-plain-load"
    (Insn.Ld (Insn.Plain, Reg.t3, Reg.t4, 0))
    "unmasked address";
  expect_error "fault-plain-store"
    (Insn.St (Insn.Plain, Reg.t4, Reg.t0, 0))
    "unmasked address";
  let wide = { hw with Machine.addr_mask = 0x7fffffff } in
  expect_error "fault-load" ~hw:wide
    (Insn.Ld (Insn.Tag_ignoring, Reg.t3, Reg.t4, 0))
    "load fault";
  expect_error "fault-store" ~hw:wide
    (Insn.St (Insn.Tag_ignoring, Reg.t4, Reg.t0, 0))
    "store fault"

(* Words with bit 31 set, stored and reloaded in a hot loop through a
   plain address and through a tagged pointer (tag-ignoring access), so
   that the traced legs move them through the trace closures' memory
   accesses: every leg must read them back unsigned.  The stores sit far
   past the prefix a machine materialises on creation, the tag-ignoring
   one in the last words of memory. *)
let test_trace_high_bit_words () =
  let n = 200 and step = 0x40000001 and start = 0xFFFFFFFF in
  let plain = 0x80000 and top = hw.Machine.mem_bytes - 16 in
  let tagged = (0x1F lsl scheme.Scheme.tag_shift) lor top in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t6, n));
        Buf.emit b (Insn.Li (Reg.t1, start));
        Buf.emit b (Insn.Li (Reg.a0, step));
        Buf.emit b (Insn.Li (Reg.t4, plain));
        Buf.emit b (Insn.Li (Reg.t5, tagged));
        Buf.emit b (Insn.Li (Reg.v0, 0));
        Buf.emit b (Insn.Li (Reg.t8, 0));
        Buf.label b "loop";
        Buf.emit b (Insn.St (Insn.Plain, Reg.t4, Reg.t1, 0));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t4, 0));
        Buf.emit b (Insn.St (Insn.Tag_ignoring, Reg.t5, Reg.t2, 4));
        Buf.emit b (Insn.Ld (Insn.Tag_ignoring, Reg.t3, Reg.t5, 4));
        Buf.emit b (Insn.Alu (Insn.Xor, Reg.v0, Reg.v0, Reg.t3));
        Buf.emit b (Insn.Alui (Insn.Srl, Reg.t7, Reg.t3, 31));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t8, Reg.t8, Reg.t7));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t1, Reg.t1, Reg.a0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t6 "loop");
        Buf.emit b (Insn.St (Insn.Plain, Reg.t4, Reg.t8, 8));
        Buf.emit b Insn.Halt)
  in
  let words = List.init n (fun i -> (start + (i * step)) land 0xFFFFFFFF) in
  let last = List.nth words (n - 1) in
  let high =
    List.length (List.filter (fun w -> w land 0x80000000 <> 0) words)
  in
  let machines = ref [] in
  let setup m = machines := m :: !machines in
  let r = check_three "high-bit-words" ~threshold:4 ~setup image in
  expect_outcome "high-bit-words"
    (Printf.sprintf "halted %d" (List.fold_left ( lxor ) 0 words))
    r;
  check_laws "high-bit-words" (snd r);
  Alcotest.(check int) "high-bit-words: both traced legs form traces" 2
    (List.length (List.filter (fun m -> trace_count m > 0) !machines));
  Alcotest.(check bool) "high-bit-words: some words have bit 31" true
    (high > 0 && high < n);
  List.iter
    (fun m ->
      Alcotest.(check (list int))
        "high-bit-words: memory" [ last; last; high ]
        (List.map (Machine.peek m) [ plain; top + 4; plain + 8 ]))
    !machines

(* --- Uncompilable delay slots: raw slot contents the assembler never
   emits.  A block's shape stops before such a branch, so no trace grows
   through it, and the traced run loop steps the branch with its slots
   on the reference [step]. --- *)

(* [image] with the instructions at the given code addresses replaced. *)
let patch image edits =
  let code = Array.copy image.Image.code in
  List.iter
    (fun (i, insn) -> code.(i) <- { (code.(i)) with Image.insn })
    edits;
  { image with Image.code }

(* The address of the only conditional branch in [image]. *)
let branch_pc image =
  let code = image.Image.code in
  let rec find i =
    match code.(i).Image.insn with
    | Insn.B _ | Insn.Bi _ | Insn.Btag _ -> i
    | _ -> find (i + 1)
  in
  find 0

let int_item = Scheme.encode_int scheme
let gen_inc = Insn.Add_gen (Reg.t5, Reg.t5, Reg.t4)

(* A recursion hot enough to form traces runs sp down to the stack
   limit: the write that would pass it aborts with [err_stack], inside a
   trace, uncharged, on every leg.  The frame push sits either in the
   straight line or in the delay slots of the recursive call. *)
let test_trace_stack_overflow () =
  let base = 65536 and frames = 300 in
  let setup m =
    Machine.set_reg m Reg.sp (base + (8 * frames));
    Machine.set_stack_limit m base
  in
  let push = Insn.Alui (Insn.Add, Reg.sp, Reg.sp, -8) in
  let save = Insn.St (Insn.Plain, Reg.sp, Reg.ra, 0) in
  let recursion ~in_slots =
    let image =
      assemble (fun b ->
          Buf.emit b (Insn.Li (Reg.t0, 0));
          Buf.emit b (Insn.Jal "f");
          Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
          Buf.emit b Insn.Halt;
          Buf.label b "f";
          Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
          if not in_slots then begin
            Buf.emit b push;
            Buf.emit b save
          end;
          Buf.label b "call";
          Buf.emit b (Insn.Jal "f");
          Buf.emit b (Insn.Ld (Insn.Plain, Reg.ra, Reg.sp, 0));
          Buf.emit b (Insn.Alui (Insn.Add, Reg.sp, Reg.sp, 8));
          Buf.emit b (Insn.Jr Reg.ra))
    in
    if not in_slots then image
    else
      let call = Image.code_address image "call" in
      patch image [ (call + 1, push); (call + 2, save) ]
  in
  List.iter
    (fun (name, in_slots) ->
      let in_trace0 = count "trace.in_trace" in
      let r = check_three name ~threshold:2 ~setup (recursion ~in_slots) in
      expect_outcome name (Printf.sprintf "aborted %d" Machine.err_stack) r;
      Alcotest.(check bool) (name ^ ": ran in traces") true
        (count "trace.in_trace" > in_trace0))
    [ ("stack-overflow-line", false); ("stack-overflow-slot", true) ]

(* A fuel sweep through an indirect-jump side exit.  A hot loop calls
   [f] from two sites, so the trace through [f]'s [jr ra] guards on one
   return address and side-exits at the other, with later segments to
   refund.  Under every budget from 1 to past halting, the reference and
   the threshold-2 traced leg must stop at the same point. *)
let test_trace_fuel_sweep () =
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, 12));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.label b "loop";
        Buf.emit b (Insn.Jal "f");
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (Insn.Jal "f");
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (Insn.Jal "f");
        Buf.emit b (branch Insn.Lt Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt;
        Buf.label b "f";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
        Buf.emit b (Insn.Jr Reg.ra))
  in
  let rec sweep fuel halted =
    let name = Printf.sprintf "fuel-sweep %d" fuel in
    let ro, rs = run_raw ~fuel image `Reference in
    let ho, hs = run_raw ~fuel ~threshold:2 image `Traced in
    Alcotest.(check string) (name ^ ": outcome") (outcome_str ro)
      (outcome_str ho);
    Alcotest.(check bool) (name ^ ": stats") true (Stats.equal rs hs);
    let halted = if ro = `Fuel then 0 else halted + 1 in
    if halted < 3 then sweep (fuel + 1) halted
  in
  let exits0 = count "trace.side_exits" in
  sweep 1 0;
  Alcotest.(check bool) "fuel-sweep: side exits taken" true
    (count "trace.side_exits" > exits0)

(* A hot loop whose back branch holds a non-trapping generic add in its
   first slot and a load in its second, read by the loop's first
   instruction (an interlock across the slots into the next block); the
   load of the bound just before the branch interlocks on the branch
   itself. *)
let test_slot_gen_loop () =
  let n = 21 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t6, 256));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t6, Reg.t1, 4));
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t4, int_item 1));
        Buf.emit b (Insn.Li (Reg.t5, int_item 0));
        Buf.emit b (Insn.Li (Reg.t7, 0));
        Buf.label b "loop";
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t8, Reg.t7, Reg.t7));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t1, Reg.t6, 4));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t5));
        Buf.emit b Insn.Halt)
  in
  let bpc = branch_pc image in
  let image =
    patch image
      [ (bpc + 1, gen_inc); (bpc + 2, Insn.Ld (Insn.Plain, Reg.t7, Reg.t6, 4)) ]
  in
  let r = check_three "slot-gen-loop" ~threshold:2 image in
  expect_outcome "slot-gen-loop" (Printf.sprintf "halted %d" (int_item n)) r;
  Alcotest.(check int) "slot-gen-loop: two interlocks an iteration"
    ((2 * n) - 1) (snd r).Stats.interlocks

(* A label directly on such a branch: a leader whose shape has no
   terminator, so no trace forms there and every iteration steps the
   branch. *)
let test_slot_gen_leader () =
  let n = 17 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.Li (Reg.t4, int_item 1));
        Buf.emit b (Insn.Li (Reg.t5, int_item 0));
        Buf.label b "loop";
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t5));
        Buf.emit b Insn.Halt)
  in
  let bpc = branch_pc image in
  let image =
    patch image
      [ (bpc + 1, gen_inc); (bpc + 2, Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1)) ]
  in
  let r = check_three "slot-gen-leader" ~threshold:2 image in
  (* the slots also run under the final, not-taken branch *)
  expect_outcome "slot-gen-leader"
    (Printf.sprintf "halted %d" (int_item (n + 1)))
    r

(* A straight line into a branch whose delay slots stop the machine:
   [slots] patches the slots (by offset from the branch), [cut] drops
   that many instructions from the end of code.  The run must raise the
   reference's [Machine_error], [msg] applied to the branch's address,
   with the reference's statistics. *)
let check_slot_error name ?(slots = []) ?(cut = 0) msg =
  let image =
    assemble (fun b ->
        Buf.label b "top";
        Buf.emit b (Insn.Li (Reg.t0, 1));
        Buf.emit b (Insn.Li (Reg.t1, 2));
        Buf.emit b (Insn.Li (Reg.t4, int_item 3));
        Buf.emit b
          (Insn.Li (Reg.t5, Scheme.encode_ptr scheme Scheme.Pair (256 * 8)));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.zero, 256));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "top"))
  in
  let bpc = branch_pc image in
  let image = patch image (List.map (fun (k, i) -> (bpc + k, i)) slots) in
  let code = image.Image.code in
  let image =
    { image with Image.code = Array.sub code 0 (Array.length code - cut) }
  in
  expect_outcome name ("machine error: " ^ msg bpc)
    (check_three name ~threshold:2 image)

let control_in_slot =
  Printf.sprintf "control instruction in a delay slot at pc %d"

let test_slot_control () =
  check_slot_error "slot-control" ~slots:[ (1, Insn.J 0) ] control_in_slot;
  check_slot_error "slot-control-second"
    ~slots:[ (1, Insn.Add_gen (Reg.t3, Reg.t4, Reg.t4)); (2, Insn.Jr Reg.ra) ]
    control_in_slot

let test_slot_gen_trap () =
  check_slot_error "slot-gen-trap"
    ~slots:[ (1, Insn.Add_gen (Reg.t3, Reg.t4, Reg.t5)) ]
    (Printf.sprintf "generic-arithmetic trap in a delay slot at pc %d")

(* Both slots past the end, then only the second: the reference fetches
   both slots before running either. *)
let test_slots_past_end () =
  check_slot_error "slots-past-end" ~cut:2 (fun bpc ->
      Printf.sprintf "pc out of range: %d" (bpc + 1));
  check_slot_error "slot-past-end" ~cut:1 (fun bpc ->
      Printf.sprintf "pc out of range: %d" (bpc + 2))

(* A hot one-block loop — a label on a branch back to itself, the
   increment in its delay slot — is a trace of one segment, headed by
   the branch, and matches the reference. *)
let test_one_block_loop () =
  let n = 40 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.label b "loop";
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt)
  in
  let bpc = branch_pc image in
  let image =
    patch image [ (bpc + 1, Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1)) ]
  in
  let m = Machine.create ~hw image in
  Trace.attach ~threshold:2 m;
  ignore (Machine.run m);
  (match m.Machine.tstate with
  | Some ts ->
      Alcotest.(check bool) "one-block loop: trace at its head" true
        (Option.is_some ts.Machine.ts_traces.(bpc))
  | None -> Alcotest.fail "attach installed no trace state");
  expect_outcome "one-block-loop"
    (Printf.sprintf "halted %d" (n + 1))
    (check_three "one-block-loop" ~threshold:2 image)

(* Trace formation is a function of the image alone: two fresh compiles
   of one program, each run traced once, form the same traces in the
   same order — structurally equal [ts_plans] and the same number
   formed.  Nothing carries traces between the two copies, since every
   machine's trace state starts empty. *)
let test_formation_determinism () =
  let support = Support.with_checking Support.software in
  List.iter
    (fun name ->
      let entry = B.find name in
      let formed_by () =
        let program =
          P.compile ~sizes:entry.B.sizes ~scheme ~support entry.B.source
        in
        let before = count "trace.formed" in
        let m, _ = P.load program in
        (match Machine.run m with
        | Machine.Halted _ -> ()
        | Machine.Aborted code ->
            Alcotest.failf "%s: aborted: %s" name (P.abort_message code));
        let plans =
          match m.Machine.tstate with
          | Some ts -> ts.Machine.ts_plans
          | None -> Alcotest.failf "%s: no trace state" name
        in
        (plans, count "trace.formed" - before)
      in
      let plans1, formed1 = formed_by () in
      let plans2, formed2 = formed_by () in
      Alcotest.(check bool) (name ^ ": traces formed") true (plans1 <> []);
      Alcotest.(check int) (name ^ ": one plan per formed trace") formed1
        (List.length plans1);
      Alcotest.(check int) (name ^ ": formed count") formed1 formed2;
      Alcotest.(check bool) (name ^ ": plans equal") true (plans1 = plans2))
    [ "inter"; "boyer" ]

(* The memoised matrix driver must return the same measurements, in the
   same order, for any worker count. *)
let test_pool_jobs_agree () =
  let entries = List.filteri (fun i _ -> i < 3) (Run.all_entries ()) in
  let matrix =
    List.concat_map
      (fun e ->
        [
          Run.config ~scheme:Scheme.high5 ~support:Support.software e;
          Run.config ~scheme:Scheme.high5
            ~support:(Support.with_checking Support.software) e;
          (* a duplicate: run_many must dedupe and still return it *)
          Run.config ~scheme:Scheme.high5 ~support:Support.software e;
        ])
      entries
  in
  Run.clear_cache ();
  let serial = Run.run_many ~jobs:1 matrix in
  Run.clear_cache ();
  let parallel = Run.run_many ~jobs:4 matrix in
  Run.clear_cache ();
  Alcotest.(check int)
    "measurement count" (List.length matrix) (List.length serial);
  List.iter2
    (fun (a : Run.measurement) (b : Run.measurement) ->
      Alcotest.(check string)
        "input order preserved" a.Run.entry.B.name b.Run.entry.B.name;
      Alcotest.(check bool)
        (a.Run.entry.B.name ^ ": stats identical across job counts")
        true
        (Stats.equal a.Run.stats b.Run.stats);
      Alcotest.(check int)
        (a.Run.entry.B.name ^ ": gc collections")
        a.Run.gc_collections b.Run.gc_collections)
    serial parallel

(* A compiled program whose heap ends exactly at the top of the 4 MiB
   address space: every cons store and every collector copy into the
   upper semispace goes through a masked (tag-carrying) pointer to the
   last words of memory, far past the prefix a machine materialises on
   creation.  The traced engine must agree with the reference
   exactly. *)
let test_top_of_memory () =
  let src =
    "(de build (n acc) (if (greaterp n 0) (build (- n 1) (cons n acc)) acc))\n\
     (de main () (let ((i 20) (r nil)) (while (greaterp i 0) (setq r \
     (build 200 nil)) (setq i (- i 1))) (length r)))"
  in
  let support = Support.with_checking Support.software in
  let compile sizes = P.compile ~sizes ~scheme ~support src in
  let semi_bytes = 4096 in
  let probe = compile { L.stack_bytes = 4096; semi_bytes } in
  let mem_bytes = probe.P.mem_bytes in
  let data_end = (probe.P.image.Image.data_end + 7) land lnot 7 in
  let sizes =
    { L.stack_bytes = mem_bytes - data_end - (2 * semi_bytes); semi_bytes }
  in
  let program = compile sizes in
  let map = L.compute_map ~data_end ~sizes ~mem_bytes in
  Alcotest.(check int)
    "heap ends at the top of memory" mem_bytes
    (map.L.heap_b + semi_bytes);
  let reference = P.run ~engine:`Reference program in
  Alcotest.(check (option string))
    "value" (Some "200")
    (Option.map P.hval_to_string reference.P.value);
  Alcotest.(check bool) "collects" true (reference.P.gc_collections > 0);
  check_result "top-of-memory traced" reference
    (P.run ~engine:`Traced program)

(* Every machine owns its trace state: two traced loads of one program
   get physically distinct states, running the first forms traces in
   its state alone, and a run leaves its counts covering every
   registered delta id. *)
let test_trace_state_per_machine () =
  let entry = B.find "inter" in
  let support = Support.with_checking Support.software in
  let program =
    P.compile ~sizes:entry.B.sizes ~scheme ~support entry.B.source
  in
  let state (m : Machine.t) =
    match m.Machine.tstate with
    | Some ts -> ts
    | None -> Alcotest.fail "load attached no trace state"
  in
  let m1, _ = P.load program in
  let m2, _ = P.load program in
  Alcotest.(check bool) "distinct trace states" true (state m1 != state m2);
  ignore (Machine.run m1);
  Alcotest.(check bool) "first machine formed traces" true
    ((state m1).Machine.ts_plans <> []);
  Alcotest.(check bool) "second machine formed none" true
    ((state m2).Machine.ts_plans = []);
  let ts = state m1 in
  Alcotest.(check bool) "counts cover every delta id" true
    (Array.length m1.Machine.counts >= ts.Machine.ts_ndeltas)

(* The fold zeroes the counts it folds.  One program run twice in a row
   (the second run's machine forms traces of its own) matches the
   reference both times, and so does one machine resumed after
   [Out_of_fuel] in small fuel slices, each [run] folding only its own
   counts. *)
let test_counts_folded_once () =
  let entry = B.find "inter" in
  let support = Support.with_checking Support.software in
  let program =
    P.compile ~sizes:entry.B.sizes ~scheme ~support entry.B.source
  in
  let reference = P.run ~engine:`Reference program in
  check_result "first run" reference (P.run ~engine:`Traced program);
  check_result "second run" reference (P.run ~engine:`Traced program);
  let slice = 20_000 in
  let m, _ = P.load ~fuel:slice program in
  let rec go slices =
    match Machine.run m with
    | _ -> slices
    | exception Machine.Out_of_fuel ->
        m.Machine.fuel <- slice;
        go (slices + 1)
  in
  let slices = go 1 in
  Alcotest.(check bool) "several slices" true (slices > 10);
  Alcotest.(check bool)
    "sliced run: all stats counters" true
    (Stats.equal reference.P.stats (Machine.stats m))

(* The sparse delta round trip: folding [Stats.compress s] into a zeroed
   [Stats.t] with a count of +1 reproduces [s] exactly, a count of -1
   (an entry undone by a side exit) then returns to zero, and a count of
   3 equals [s] merged three times.  Checked on random statistics and on
   single units as the trace compiler charges them: the annulled slot
   pair and a trap under every annotation, and every instruction of
   every registry image, with and without an interlock. *)
let check_round_trip name (s : Stats.t) =
  let d = Stats.compress s in
  let z = Stats.create () in
  Stats.fold_delta z d 1;
  Alcotest.(check bool)
    (name ^ ": fold reproduces the statistics") true (Stats.equal z s);
  Stats.fold_delta z d (-1);
  Alcotest.(check bool)
    (name ^ ": undo returns to zero") true
    (Stats.equal z (Stats.create ()));
  Stats.fold_delta z d 3;
  let s3 = Stats.create () in
  for _ = 1 to 3 do
    Stats.merge s3 s
  done;
  Alcotest.(check bool)
    (name ^ ": a count multiplies the delta") true (Stats.equal z s3)

let all_annots =
  let open Tagsim.Annot in
  let kinds =
    [ Plain; Insert; Remove; Garith; Alloc; Gc_work; Slot_fill ]
    @ List.concat_map (fun s -> [ Extract s; Check s ]) all_sources
  in
  List.concat_map
    (fun k -> [ make ~checking:false k; make ~checking:true k ])
    kinds

let test_compress_round_trip () =
  let rng = Random.State.make [| 19 |] in
  for trial = 1 to 2000 do
    let rnd () =
      if Random.State.int rng 3 = 0 then Random.State.int rng 2001 - 1000
      else 0
    in
    let s = Stats.create () in
    s.Stats.cycles <- rnd ();
    s.Stats.insns <- rnd ();
    s.Stats.interlocks <- rnd ();
    s.Stats.squashed <- rnd ();
    s.Stats.traps <- rnd ();
    s.Stats.trap_cycles <- rnd ();
    Array.iteri (fun i _ -> s.Stats.kind_cycles.(i) <- rnd ()) s.Stats.kind_cycles;
    Array.iteri (fun i _ -> s.Stats.klass_insns.(i) <- rnd ()) s.Stats.klass_insns;
    check_round_trip (Printf.sprintf "random %d" trial) s
  done;
  let unit name charge =
    let s = Stats.create () in
    charge s;
    check_round_trip name s
  in
  List.iter
    (fun a ->
      let what = Fmt.str "%a" Tagsim.Annot.pp a in
      unit ("annul " ^ what) (fun s -> Stats.annul s a);
      unit ("trap " ^ what) (fun s ->
          Stats.trap s ~checking:a.Tagsim.Annot.checking 7))
    all_annots;
  let support = Support.with_checking Support.software in
  List.iter
    (fun (entry : B.entry) ->
      let program =
        P.compile ~sizes:entry.B.sizes ~scheme ~support entry.B.source
      in
      Array.iteri
        (fun i (e : Image.entry) ->
          let charge s =
            Stats.count_insn s (Insn.klass e.Image.insn);
            Stats.charge s e.Image.annot 1
          in
          unit (Printf.sprintf "%s unit %d" entry.B.name i) charge;
          unit
            (Printf.sprintf "%s unit %d interlocked" entry.B.name i)
            (fun s ->
              Stats.interlock s;
              charge s))
        program.P.image.Image.code)
    (B.all ())

(* [Stats.broken_law] holds on statistics charged through the [Stats]
   functions, and names each law that a hand-built [Stats.t] breaks. *)
let test_conservation_laws () =
  let s = Stats.create () in
  Stats.count_insn s Insn.K_alu;
  Stats.charge s (Tagsim.Annot.make Tagsim.Annot.Insert) 3;
  Stats.interlock s;
  Stats.annul s Tagsim.Annot.plain;
  Stats.trap s ~checking:true 5;
  Alcotest.(check (option string)) "charged: laws hold" None
    (Stats.broken_law s);
  let broken what field =
    let b = Stats.create () in
    Stats.merge b s;
    field b;
    match Stats.broken_law b with
    | Some law when String.starts_with ~prefix:what law -> ()
    | Some law -> Alcotest.failf "%s: reported %S" what law
    | None -> Alcotest.failf "%s: not reported" what
  in
  broken "cycles = kind cycles + interlocks" (fun b ->
      b.Stats.cycles <- b.Stats.cycles + 1);
  broken "cycles = kind cycles + interlocks" (fun b ->
      b.Stats.interlocks <- b.Stats.interlocks + 1);
  broken "insns = class counts" (fun b -> b.Stats.insns <- b.Stats.insns - 1);
  broken "insns = class counts" (fun b ->
      b.Stats.klass_insns.(0) <- b.Stats.klass_insns.(0) + 1)

(* Trace formation allocates a few words per unit, not a dense counter
   array per unit: minor-heap words per formed trace (growth and
   compilation, from the [Trace.form] counters) stay under 40% of what
   the dense per-unit builder allocated.  Measured with that builder,
   high5, software support with checking: inter 17,085 and boyer 16,904
   words per formed trace. *)
let test_formation_alloc_budget () =
  let support = Support.with_checking Support.software in
  List.iter
    (fun (name, dense_words) ->
      let entry = B.find name in
      let program =
        P.compile ~sizes:entry.B.sizes ~scheme ~support entry.B.source
      in
      let formed0 = count "trace.formed" in
      let words0 = count "trace.form_words" in
      let r = P.run ~engine:`Traced program in
      Alcotest.(check (option string)) (name ^ ": no abort") None r.P.abort;
      let formed = count "trace.formed" - formed0 in
      let words = count "trace.form_words" - words0 in
      Alcotest.(check bool) (name ^ ": traces formed") true (formed > 0);
      let per_trace = words / formed in
      if per_trace * 10 > dense_words * 4 then
        Alcotest.failf "%s: %d words per formed trace, budget %d" name
          per_trace (dense_words * 4 / 10))
    [ ("inter", 17_085); ("boyer", 16_904) ]

let suite =
  [
    ( "engines",
      List.map
        (fun (e : B.entry) ->
          Alcotest.test_case e.B.name `Slow (test_engines_agree e))
        (B.all ())
      @ [
          Alcotest.test_case "garith-rett" `Quick test_garith_rett;
          Alcotest.test_case "squash-branch" `Quick test_squash_branch;
          Alcotest.test_case "fuel-exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "checked-load-trap" `Quick
            test_checked_load_trap;
          Alcotest.test_case "div-zero" `Quick test_div_zero;
          Alcotest.test_case "interlocks" `Quick test_interlocks;
          Alcotest.test_case "attach-idempotent" `Quick
            test_attach_idempotent;
          Alcotest.test_case "trace-promotion" `Quick test_trace_promotion;
          Alcotest.test_case "trace-side-exit" `Quick test_trace_side_exit;
          Alcotest.test_case "trace-squash-taken" `Quick
            test_trace_squash_taken;
          Alcotest.test_case "trace-squash-fall" `Quick
            test_trace_squash_fall;
          Alcotest.test_case "trace-indirect" `Quick test_trace_indirect;
          Alcotest.test_case "trace-div-zero" `Quick test_trace_div_zero;
          Alcotest.test_case "trace-garith" `Quick test_trace_garith;
          Alcotest.test_case "trace-cross-interlock" `Quick
            test_trace_cross_interlock;
          Alcotest.test_case "trace-fuel" `Quick test_trace_fuel;
          Alcotest.test_case "trace-mem-fault" `Quick test_trace_mem_fault;
          Alcotest.test_case "trace-high-bit-words" `Quick
            test_trace_high_bit_words;
          Alcotest.test_case "trace-stack-overflow" `Quick
            test_trace_stack_overflow;
          Alcotest.test_case "trace-fuel-sweep" `Quick test_trace_fuel_sweep;
          Alcotest.test_case "slot-gen-loop" `Quick test_slot_gen_loop;
          Alcotest.test_case "slot-gen-leader" `Quick test_slot_gen_leader;
          Alcotest.test_case "slot-control" `Quick test_slot_control;
          Alcotest.test_case "slot-gen-trap" `Quick test_slot_gen_trap;
          Alcotest.test_case "slots-past-end" `Quick test_slots_past_end;
          Alcotest.test_case "one-block-loop" `Quick test_one_block_loop;
          Alcotest.test_case "formation-determinism" `Quick
            test_formation_determinism;
          Alcotest.test_case "conservation-laws" `Quick test_conservation_laws;
          Alcotest.test_case "compress-round-trip" `Quick
            test_compress_round_trip;
          Alcotest.test_case "trace-state-per-machine" `Quick
            test_trace_state_per_machine;
          Alcotest.test_case "counts-folded-once" `Quick
            test_counts_folded_once;
          Alcotest.test_case "formation-alloc-budget" `Quick
            test_formation_alloc_budget;
          Alcotest.test_case "pool-jobs" `Quick test_pool_jobs_agree;
          Alcotest.test_case "top-of-memory" `Quick test_top_of_memory;
        ] );
  ]
