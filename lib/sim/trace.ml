(** The profile-guided superblock trace engine: the hot tier of
    [`Traced], and the one compiler of the traced engine.

    Cold code runs on the reference [Machine.step], with a per-leader
    entry-heat counter and a two-entry successor (edge) profile kept by
    the run loop.  [leaders] marks the basic-block leaders a load
    profiles: the entry point, every code label, branch/jump targets,
    fall-throughs after a control instruction and its two delay slots,
    and the resumption point after each generic-arithmetic instruction.
    When a leader crosses the hot threshold, [form] grows a superblock
    along the dominant successor path: a bounded run of basic blocks
    ([segment_of]), each ending in a guardable junction — a conditional
    branch, a direct jump, or a register-indirect jump, all with
    compilable delay slots — and closed by a loop back-edge, an
    unguardable block, a cold or bimodal edge, or the length bound; a
    back-edge into the head closes the trace with the head as its exit,
    so a loop trace chains to itself.  A single segment is a trace too,
    so a hot one-block loop leaves the interpreter.

    The expected path compiles into one instruction-level continuation
    chain.  [compile_op] turns each simple instruction into a closure
    doing only the genuinely dynamic part (register writes, memory
    traffic, trap and abort detection) that tail-calls the next, with
    the operator of a never-trapping operation inlined; no-ops and
    writes to the zero register vanish entirely.  [cond_test] compiles
    every branch condition.  Everything statically knowable is charged,
    through the same {!Stats} functions as [Machine.step], into a
    [Stats.t] swept right to left: instruction and class counts,
    annotation cycles, ALU and wide-immediate charges, each terminator's
    issue cycle, the load-use interlocks between adjacent instructions
    (fully determined by the pair, across junctions too) and the annul
    accounting of squashing branches the path falls through.  Its
    compressed snapshot is the trace's entry delta, counted once on
    entry (by id, in the running machine; [Machine.run] folds [count *
    delta] into [Stats] when it returns).  The only dynamic interlock
    probe left is at trace entry, against a load in flight from
    whatever ran before.

    Exactness comes from the guards.  Each junction that can leave the
    expected path compiles a side exit that (a) uncounts the pre-summed
    delta of everything that will now not execute (the off-path
    continuation of this junction plus every later segment), (b) refunds
    the corresponding pre-paid fuel, (c) performs whatever the off path
    genuinely does (run the annulled-on-path slots, charge the annul
    cycles of slots the path expected to run, latch the in-flight load
    register), and (d) hands the off-path pc back to the dispatch loop.
    Dynamic early exits inside the path (division by zero, a stack
    overflow, checked-load type traps, resumable generic-arithmetic
    traps, memory faults) uncount the statistics of the unexecuted
    suffix and refund its fuel the same way.  The result is
    bit-identical {!Stats.t}, abort codes, machine errors and fuel
    trajectory — [Out_of_fuel] tail included, because a trace pre-pays
    its retirements and the run loop steps its head instead when fuel
    runs short (enforced by the engine differential suite).

    Delay slots are compiled into their branch only when both slot
    instructions are simple (not control, not generic arithmetic): the
    branch's interlock check resets [pending_load], so slot interlocks
    are static — the first slot never interlocks and the second only
    against a load in the first.  Register-indirect jumps latch their
    target in [Machine.jump_target] before the slots run (a slot may
    clobber the register).  Slots ride their branch's top-level
    retirement, so they consume no fuel of their own.  No trace grows
    through a branch whose slots are not simple, or run off the end of
    code: the reference [Machine.step] runs it.  Compiler-produced code
    never builds such slots; only raw images do. *)

module M = Machine
module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Word = Tagsim_mipsx.Word
module Image = Tagsim_asm.Image
module Metrics = Tagsim_metrics.Metrics

(* Entries before a leader is considered hot. *)
let default_threshold = 32

(* Superblock length bound, in blocks. *)
let max_segments = 64

(* A trace may be a single segment: the cold tier is the interpreter,
   so even a one-block loop gains from being compiled. *)
let min_segments = 1

(* --- Static control flow. --- *)

(* The basic-block leaders of the machine's code, by pc (see the module
   header): the pcs the run loop profiles and traces grow from. *)
let leaders (m : M.t) =
  let code = m.M.code in
  let n = Array.length code in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  let mark i = if i >= 0 && i < n then leader.(i) <- true in
  Array.iter mark m.M.code_entries;
  Array.iteri
    (fun i (e : Image.entry) ->
      match e.Image.insn with
      | Insn.B (_, t) | Insn.Bi (_, t) | Insn.Btag (_, t) ->
          mark t;
          mark (i + 3)
      | Insn.J t | Insn.Jal t ->
          mark t;
          mark (i + 3)
      | Insn.Jr _ | Insn.Jalr _ | Insn.Rett | Insn.Trap _ | Insn.Halt ->
          mark (i + 3)
      | Insn.Add_gen _ | Insn.Sub_gen _ ->
          (* A resumable trap returns to the next instruction ([epc]),
             so it must start a block. *)
          mark (i + 1)
      | Insn.Alu _ | Insn.Alui _ | Insn.Li _ | Insn.La _ | Insn.Mv _
      | Insn.Ld _ | Insn.St _ | Insn.Settd _ | Insn.Nop ->
          ())
    code;
  leader

let squash_of (e : Image.entry) =
  match e.Image.insn with
  | Insn.B (b, _) -> b.Insn.squash
  | Insn.Bi (b, _) -> b.Insn.bi_squash
  | Insn.Btag (b, _) -> b.Insn.bt_squash
  | _ -> false

(* A delay slot a trace can compile: not control, not generic
   arithmetic. *)
let fusible (e : Image.entry) =
  match e.Image.insn with
  | Insn.Add_gen _ | Insn.Sub_gen _ -> false
  | i -> not (Insn.is_control i)

(* How a trace segment ends, and which successor the path expects:
   a conditional branch guarded on its condition; J/Jal with a static
   successor, no guard; Jr/Jalr guarded on the latched jump target.
   Re-exported from [Plan] by type equation — the junction is the part
   of a grown segment that its trace plan records verbatim. *)
type jct = Plan.jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

type seg = {
  sg_pc : int; (* leader *)
  sg_stop : int; (* terminator address *)
  sg_len : int; (* body length (sg_stop - sg_pc) *)
  sg_term : Image.entry;
  sg_s1 : Image.entry; (* compiled delay slots *)
  sg_s2 : Image.entry;
  sg_squash : bool;
  sg_jct : jct;
  sg_next : int; (* expected successor leader (trace exit for the last) *)
  sg_prob : float; (* observed share of the expected successor *)
}

(* --- Growth. --- *)

(* Expected probability of reaching a segment before growth stops: the
   product of the observed junction shares along the path.  Growing
   past a junction only pays off if the path usually survives it; a
   junction that would drop the product below the cutoff still joins
   the trace as its final, guarded segment (a side exit at the last
   junction rolls back nothing), but nothing is grown beyond it. *)
let reach_cutoff = 0.5

(* The leading recorded successor of a junction, with its share of the
   recorded total.  The observation floor adapts to tiny test
   thresholds. *)
let dominant (ts : M.tstate) pc =
  let c1 = ts.M.ts_cnt1.(pc) and c2 = ts.M.ts_cnt2.(pc) in
  let s, c =
    if c1 >= c2 then (ts.M.ts_succ1.(pc), c1) else (ts.M.ts_succ2.(pc), c2)
  in
  let floor = min 4 (max 1 (ts.M.ts_threshold - 1)) in
  if s >= 0 && c >= floor then
    Some (s, float_of_int c /. float_of_int (c1 + c2))
  else None

type candidate = Seg of seg | No_dominant | Unfit

(* The share credited to a [Jr ra] whose return address the growth's
   call-return stack predicts: near-certain — the matching call is on
   the path, and the calling convention restores [ra] before the return
   — but guarded like any expected successor, so a program that returns
   somewhere else only side-exits. *)
let matched_return_prob = 0.99

(* Can the block led by [pc] be a trace segment, and where does its
   expected path go?  The block runs straight through intermediate
   leaders, as the run loop's straight-line runs do, to its first
   control instruction; it is a segment only if that is a branch or jump
   whose two delay slots are in code and compilable.  [ret] is the
   innermost unreturned call's return address, if the path crossed one —
   it beats the edge profile for [Jr ra], whose profile blurs every call
   site of the function together.  [Unfit] is structural (no junction,
   unfusible slots); [No_dominant] may resolve once more edge profile
   accumulates. *)
let segment_of (m : M.t) (ts : M.tstate) ~ret pc : candidate =
  let code = m.M.code in
  let n = Array.length code in
  let rec scan j =
    if j >= n || Insn.is_control code.(j).Image.insn then j else scan (j + 1)
  in
  let stop = scan pc in
  if stop + 2 >= n || not (fusible code.(stop + 1) && fusible code.(stop + 2))
  then Unfit
  else
    let e = code.(stop) in
    let squash = squash_of e in
    let fall = stop + 3 in
    let mk ?(p = 1.0) jct next =
      Seg
        {
          sg_pc = pc;
          sg_stop = stop;
          sg_len = stop - pc;
          sg_term = e;
          sg_s1 = code.(stop + 1);
          sg_s2 = code.(stop + 2);
          sg_squash = squash;
          sg_jct = jct;
          sg_next = next;
          sg_prob = p;
        }
    in
    match e.Image.insn with
    | Insn.J target -> mk (Jump { link = false }) target
    | Insn.Jal target -> mk (Jump { link = true }) target
    | Insn.B (_, target) | Insn.Bi (_, target) | Insn.Btag (_, target) -> (
        if target = fall then
          (* Degenerate branch-to-fall-through: with slots running
             either way there is nothing to guard; an annulling one
             still differs in accounting, so leave it to [step]. *)
          if squash then Unfit else mk (Jump { link = false }) target
        else
          match dominant ts pc with
          | Some (d, p) when d = target ->
              mk ~p (Cond { expect_taken = true; target }) target
          | Some (d, p) when d = fall ->
              mk ~p (Cond { expect_taken = false; target }) fall
          | Some _ | None -> No_dominant)
    | Insn.Jr rs -> (
        match ret with
        | Some r when rs = Reg.ra ->
            mk ~p:matched_return_prob (Indirect { rs; link = false }) r
        | _ -> (
            match dominant ts pc with
            | Some (d, p) -> mk ~p (Indirect { rs; link = false }) d
            | None -> No_dominant))
    | Insn.Jalr rs -> (
        match dominant ts pc with
        | Some (d, p) -> mk ~p (Indirect { rs; link = true }) d
        | None -> No_dominant)
    | _ -> Unfit

(* Grow the superblock from [head] along expected successors.  Growth
   closes on a loop back-edge into the path, on a block that cannot be
   a segment, on a junction without a dominant successor, at
   [max_segments], or when the product of junction shares says the tail
   would rarely be reached ([reach_cutoff]).  A back-edge into the head
   closes like any other, with the head as the exit, so a whole loop
   body chains to itself through [tr_next].  [Ok] carries the segments
   and the exit pc; [Error retryable] reports a head not (yet) worth a
   trace. *)
let grow (m : M.t) (ts : M.tstate) head =
  let n = Array.length m.M.code in
  let leader = ts.M.ts_leader in
  (* [stack]: return addresses of calls crossed on the path and not yet
     returned from — the call-return hint for [Jr ra] junctions. *)
  let rec go acc count pc reach stack =
    let close retryable =
      if count >= min_segments && pc >= 0 && pc < n then
        Ok (Array.of_list (List.rev acc), pc)
      else Error retryable
    in
    if List.exists (fun s -> s.sg_pc = pc) acc then close false
    else if count = max_segments then close false
    else if reach < reach_cutoff then close false
    else if pc < 0 || pc >= n || not leader.(pc) then close false
    else
      let ret = match stack with r :: _ -> Some r | [] -> None in
      match segment_of m ts ~ret pc with
      | Unfit -> close false
      | No_dominant -> close true
      | Seg s ->
          let stack' =
            match s.sg_jct with
            | Jump { link = true } | Indirect { link = true; _ } ->
                (s.sg_stop + 3) :: stack
            | Indirect { link = false; rs } when rs = Reg.ra -> (
                match stack with _ :: rest -> rest | [] -> [])
            | _ -> stack
          in
          go (s :: acc) (count + 1) s.sg_next (reach *. s.sg_prob) stack'
  in
  go [] 0 head 1.0 []

(* --- Compiled continuations. --- *)

(* A compiled continuation chain returns the successor pc so the dispatch
   loop never round-trips through [t.pc]; [stopped] (any negative value)
   signals that the outcome has been decided instead. *)
type chain_fn = M.t -> int

let stopped = -1

(* Add [n] (+1 applied, -1 undone) to delta [id]'s count in the running
   machine.  [Machine.register_delta] sized [t.counts] to cover [id], so
   the unchecked accesses cannot go wrong. *)
let count id n (t : M.t) =
  let c = t.M.counts in
  Array.unsafe_set c id (Array.unsafe_get c id + n)

(* Registers read by an instruction as a pre-resolved pair (at most two;
   -1 = none), replacing the per-retirement [Insn.reads] list. *)
let read_regs (insn : int Insn.t) =
  match Insn.reads insn with
  | [] -> (-1, -1)
  | [ r ] -> (r, -1)
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* Statically-resolved load-use dependence: does [next] read the
   destination of a preceding load [prev]?  (Only a load leaves
   [pending_load] set; every other instruction resets it.) *)
let interlocks_after prev_insn next_insn =
  match prev_insn with
  | Insn.Ld (_, rd, _, _) -> Insn.reads_reg next_insn rd
  | _ -> false

(* The register left with an in-flight load by an instruction at a
   trace exit (-1 for anything but a load). *)
let exit_pl_of (insn : int Insn.t) =
  match insn with Insn.Ld (_, rd, _, _) -> rd | _ -> -1

(* Effective data address, mirroring [Machine.effective] but with the
   instruction's code address resolved statically for the fault message
   ([t.pc] is stale inside a compiled path); returns -1 for a type trap.
   [fault] runs just before the access raises a [Machine_error]: here,
   for an unmasked address, or in [Machine.read_word]/[write_word] for
   an address past the end of memory.  Only a tag-ignoring mask wider
   than memory can produce the latter, so only that case pays for the
   range test. *)
let effective_fn (hw : M.hw) (e : Image.entry) p (mode : Insn.mem_mode) off
    ~(fault : M.t -> unit) =
  let offw = Word.of_int off in
  let mem_bytes = hw.M.mem_bytes in
  let mem_mask = mem_bytes - 1 in
  match mode with
  | Insn.Plain ->
      if e.Image.speculative then fun (_ : M.t) base ->
        let addr = Word.add base offw in
        if addr >= mem_bytes then addr land mem_mask else addr
      else fun t base ->
        let addr = Word.add base offw in
        if addr >= mem_bytes then begin
          fault t;
          M.errorf "unmasked address 0x%08x at pc %d" addr p
        end
        else addr
  | Insn.Tag_ignoring ->
      let amask = hw.M.addr_mask in
      if amask land lnot mem_mask = 0 then fun _ base ->
        Word.add base offw land amask
      else fun t base ->
        let addr = Word.add base offw land amask in
        if addr >= mem_bytes then fault t;
        addr
  | Insn.Checked expected ->
      let shift = hw.M.tag_shift and width = hw.M.tag_width in
      let exp_shifted = expected lsl shift in
      fun _ base ->
        if Word.field ~shift ~width base <> expected then -1
        else Word.sub (Word.add base offw) exp_shifted land mem_mask

(* Charge the statically-knowable statistics of one instruction into
   [s]: its count, its cycle charge when the charge is unconditional on
   the success path (control instructions issue in one cycle), and the
   load-use interlock with its predecessor. *)
let charge_insn s (prev : Image.entry option) (e : Image.entry) =
  let insn = e.Image.insn in
  (match prev with
  | Some pe when interlocks_after pe.Image.insn insn -> Stats.interlock s
  | Some _ | None -> ());
  Stats.count_insn s (Insn.klass insn);
  Stats.charge s e.Image.annot
    (match insn with
    | Insn.Alu (op, _, _, _) -> M.alu_cycles op
    | Insn.Alui ((Insn.Div | Insn.Rem), _, _, 0) ->
        (* Always aborts before charging. *)
        0
    | Insn.Alui (op, _, _, _) -> M.alu_cycles op
    | Insn.Li (_, v) -> Word.imm_cycles v
    | Insn.La (_, v) -> Word.imm_cycles v
    | Insn.Mv _ | Insn.Ld _ | Insn.St _ | Insn.Add_gen _ | Insn.Sub_gen _
    | Insn.Settd _ | Insn.Nop | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _
    | Insn.Jal _ | Insn.Jr _ | Insn.Jalr _ | Insn.Rett | Insn.Trap _
    | Insn.Halt ->
        1)

(* The condition of a conditional branch, pre-resolved with the
   comparison inlined (mirrors [Machine.cond_eval] and the [Btag] tag
   test). *)
let cond_test (hw : M.hw) (e : Image.entry) : M.t -> bool =
  match e.Image.insn with
  | Insn.B (b, _) -> (
      let rs = b.Insn.rs and rt = b.Insn.rt in
      match b.Insn.cond with
      | Insn.Eq -> fun t -> t.M.regs.(rs) = t.M.regs.(rt)
      | Insn.Ne -> fun t -> t.M.regs.(rs) <> t.M.regs.(rt)
      | Insn.Lt ->
          fun t -> Word.to_signed t.M.regs.(rs) < Word.to_signed t.M.regs.(rt)
      | Insn.Ge ->
          fun t -> Word.to_signed t.M.regs.(rs) >= Word.to_signed t.M.regs.(rt)
      | Insn.Gt ->
          fun t -> Word.to_signed t.M.regs.(rs) > Word.to_signed t.M.regs.(rt)
      | Insn.Le ->
          fun t -> Word.to_signed t.M.regs.(rs) <= Word.to_signed t.M.regs.(rt))
  | Insn.Bi (b, _) -> (
      let rs = b.Insn.bi_rs in
      let immw = Word.of_int b.Insn.bi_imm in
      let imms = Word.to_signed immw in
      match b.Insn.bi_cond with
      | Insn.Eq -> fun t -> t.M.regs.(rs) = immw
      | Insn.Ne -> fun t -> t.M.regs.(rs) <> immw
      | Insn.Lt -> fun t -> Word.to_signed t.M.regs.(rs) < imms
      | Insn.Ge -> fun t -> Word.to_signed t.M.regs.(rs) >= imms
      | Insn.Gt -> fun t -> Word.to_signed t.M.regs.(rs) > imms
      | Insn.Le -> fun t -> Word.to_signed t.M.regs.(rs) <= imms)
  | Insn.Btag (b, _) ->
      let shift = hw.M.tag_shift and width = hw.M.tag_width in
      let rs = b.Insn.bt_rs in
      let neg = b.Insn.bt_neg and tag = b.Insn.bt_tag in
      if neg then fun t -> Word.field ~shift ~width t.M.regs.(rs) <> tag
      else fun t -> Word.field ~shift ~width t.M.regs.(rs) = tag
  | _ -> assert false

(* Compile one simple instruction into a closure that does only the
   genuinely dynamic work and tail-calls [next]; no-ops and writes to
   the zero register compile to [next] itself, and a never-trapping
   operation has its operator inlined (no indirect evaluator call on
   the hot path).  [suffix] holds the statistics pre-summed for every
   unit after this one; the caller charges this instruction into it
   afterwards ([charge_insn]).  An instruction that can leave early
   snapshots its undo delta from it here, at compile time, and [snap]
   registers it under an id; on a dynamic exit the closure uncounts that id, refunds
   its pre-paid fuel, and does not call [next]. *)
let compile_op (hw : M.hw) (e : Image.entry) ~pc:p ~(suffix : Stats.t)
    ~(snap : Stats.t -> int) ~refund ~(next : chain_fn) : chain_fn =
  let insn = e.Image.insn in
  let exit_early u (t : M.t) =
    count u (-1) t;
    if refund <> 0 then t.M.fuel <- t.M.fuel + refund
  in
  match insn with
  | Insn.Nop -> next
  | Insn.Alu (_, rd, _, _)
  | Insn.Alui (_, rd, _, _)
  | Insn.Mv (rd, _)
    when rd = Reg.sp ->
      (* A value computed into sp checks the stack limit.  Like a
         division by zero, which this arm also covers ([ev] gives -1),
         it aborts before charging, so the undo also takes back its own
         cycles. *)
      let c, (ev : M.t -> int) =
        match insn with
        | Insn.Alu (op, _, rs, rt) ->
            let div = op = Insn.Div || op = Insn.Rem in
            ( M.alu_cycles op,
              fun t ->
                let b = t.M.regs.(rt) in
                if div && b = 0 then -1 else M.alu_eval op t.M.regs.(rs) b )
        | Insn.Alui (op, _, rs, imm) ->
            let b = Word.of_int imm in
            if (op = Insn.Div || op = Insn.Rem) && imm = 0 then
              (M.alu_cycles op, fun _ -> -1)
            else (M.alu_cycles op, fun t -> M.alu_eval op t.M.regs.(rs) b)
        | Insn.Mv (_, rs) -> (1, fun t -> t.M.regs.(rs))
        | _ -> assert false
      in
      let a = e.Image.annot in
      Stats.charge suffix a c;
      let u = snap suffix in
      Stats.charge suffix a (-c);
      fun t ->
        let v = ev t in
        if v >= t.M.stack_limit then begin
          t.M.regs.(Reg.sp) <- v;
          next t
        end
        else begin
          exit_early u t;
          M.abort t (if v < 0 then M.err_div0 else M.err_stack);
          stopped
        end
  | Insn.Alu (((Insn.Div | Insn.Rem) as op), rd, rs, rt) ->
      (* The charge is pre-summed for the success path; a division by
         zero aborts before charging, so the undo of the suffix also
         takes back this instruction's own cycles. *)
      let a = e.Image.annot and c = M.alu_cycles op in
      Stats.charge suffix a c;
      let u = snap suffix in
      Stats.charge suffix a (-c);
      let ev = if op = Insn.Div then Word.div else Word.rem in
      fun t ->
        let b = t.M.regs.(rt) in
        if b = 0 then begin
          exit_early u t;
          M.abort t M.err_div0;
          stopped
        end
        else begin
          if rd <> Reg.zero then
            t.M.regs.(rd) <- Word.of_int (ev t.M.regs.(rs) b);
          next t
        end
  | Insn.Alui ((Insn.Div | Insn.Rem), _, _, 0) ->
      (* Never charged, so the undo is the plain suffix. *)
      let u = snap suffix in
      fun t ->
        exit_early u t;
        M.abort t M.err_div0;
        stopped
  | Insn.Alu (_, rd, _, _) | Insn.Alui (_, rd, _, _) when rd = Reg.zero -> next
  | Insn.Alu (op, rd, rs, rt) -> (
      match op with
      | Insn.Add ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.add t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Sub ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sub t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.And ->
          fun t ->
            t.M.regs.(rd) <-
              Word.of_int (Word.logand t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Or ->
          fun t ->
            t.M.regs.(rd) <-
              Word.of_int (Word.logor t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Xor ->
          fun t ->
            t.M.regs.(rd) <-
              Word.of_int (Word.logxor t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Nor ->
          fun t ->
            t.M.regs.(rd) <-
              Word.of_int (Word.lognor t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Slt ->
          fun t ->
            t.M.regs.(rd) <-
              (if Word.lt_signed t.M.regs.(rs) t.M.regs.(rt) then 1 else 0);
            next t
      | Insn.Sltu ->
          fun t ->
            t.M.regs.(rd) <-
              (if Word.lt_unsigned t.M.regs.(rs) t.M.regs.(rt) then 1 else 0);
            next t
      | Insn.Sll ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sll t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Srl ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.srl t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Sra ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sra t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Mul ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.mul t.M.regs.(rs) t.M.regs.(rt));
            next t
      | Insn.Div | Insn.Rem -> assert false)
  | Insn.Alui (op, rd, rs, imm) -> (
      let b = Word.of_int imm in
      match op with
      | Insn.Add ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.add t.M.regs.(rs) b);
            next t
      | Insn.Sub ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sub t.M.regs.(rs) b);
            next t
      | Insn.And ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.logand t.M.regs.(rs) b);
            next t
      | Insn.Or ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.logor t.M.regs.(rs) b);
            next t
      | Insn.Xor ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.logxor t.M.regs.(rs) b);
            next t
      | Insn.Nor ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.lognor t.M.regs.(rs) b);
            next t
      | Insn.Slt ->
          fun t ->
            t.M.regs.(rd) <- (if Word.lt_signed t.M.regs.(rs) b then 1 else 0);
            next t
      | Insn.Sltu ->
          fun t ->
            t.M.regs.(rd) <-
              (if Word.lt_unsigned t.M.regs.(rs) b then 1 else 0);
            next t
      | Insn.Sll ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sll t.M.regs.(rs) b);
            next t
      | Insn.Srl ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.srl t.M.regs.(rs) b);
            next t
      | Insn.Sra ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.sra t.M.regs.(rs) b);
            next t
      | Insn.Mul ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.mul t.M.regs.(rs) b);
            next t
      | Insn.Div ->
          (* [imm] is a non-zero constant: no trap. *)
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.div t.M.regs.(rs) b);
            next t
      | Insn.Rem ->
          fun t ->
            t.M.regs.(rd) <- Word.of_int (Word.rem t.M.regs.(rs) b);
            next t)
  | Insn.Li (rd, imm) ->
      if rd = Reg.zero then next
      else
        let v = Word.of_int imm in
        fun t ->
          t.M.regs.(rd) <- v;
          next t
  | Insn.La (rd, addr) ->
      if rd = Reg.zero then next
      else
        let v = Word.of_int addr in
        fun t ->
          t.M.regs.(rd) <- v;
          next t
  | Insn.Mv (rd, rs) ->
      if rd = Reg.zero then next
      else fun t ->
        t.M.regs.(rd) <- t.M.regs.(rs);
        next t
  | Insn.Ld (mode, rd, rs, off) when rd = Reg.sp ->
      (* A load into sp also checks the stack limit; its issue stands
         there too. *)
      let u = snap suffix in
      let eff = effective_fn hw e p mode off ~fault:(exit_early u) in
      fun t ->
        let addr = eff t t.M.regs.(rs) in
        let v = if addr < 0 then -1 else M.read_word t addr in
        if v >= t.M.stack_limit then begin
          t.M.regs.(rd) <- v;
          next t
        end
        else begin
          exit_early u t;
          M.abort t (if addr < 0 then M.err_type else M.err_stack);
          stopped
        end
  | Insn.Ld (mode, rd, rs, off) ->
      (* A type trap aborts and a memory fault raises; either way the
         load's own issue stands and only the suffix is undone. *)
      let u = snap suffix in
      let eff = effective_fn hw e p mode off ~fault:(exit_early u) in
      fun t ->
        let addr = eff t t.M.regs.(rs) in
        if addr < 0 then begin
          exit_early u t;
          M.abort t M.err_type;
          stopped
        end
        else begin
          if rd <> Reg.zero then t.M.regs.(rd) <- M.read_word t addr
          else ignore (M.read_word t addr);
          next t
        end
  | Insn.St (mode, rs, rt, off) ->
      let u = snap suffix in
      let eff = effective_fn hw e p mode off ~fault:(exit_early u) in
      fun t ->
        let addr = eff t t.M.regs.(rs) in
        if addr < 0 then begin
          exit_early u t;
          M.abort t M.err_type;
          stopped
        end
        else begin
          M.write_word t addr t.M.regs.(rt);
          next t
        end
  | Insn.Add_gen (rd, rs, rt) | Insn.Sub_gen (rd, rs, rt) ->
      let is_add = match insn with Insn.Add_gen _ -> true | _ -> false in
      let checking = e.Image.annot.Annot.checking in
      let overhead = hw.M.trap_overhead in
      let is_int = hw.M.is_int_item in
      let overflowed = hw.M.gen_overflowed in
      let u = snap suffix in
      let resume = p + 1 in
      fun t ->
        let a = t.M.regs.(rs) and b = t.M.regs.(rt) in
        let result = if is_add then Word.add a b else Word.sub a b in
        if is_int a && is_int b && not (overflowed a b result) then begin
          if rd <> Reg.zero then t.M.regs.(rd) <- result;
          next t
        end
        else begin
          (* A resumable trap (or a type abort when no handler is
             registered).  The instruction itself retired — its count
             and issue cycle stand — so only the unexecuted suffix is
             undone; the handler's [rett] re-enters at the resumption
             point [p + 1], which is always a block leader. *)
          let handler =
            if is_add then t.M.gen_add_handler else t.M.gen_sub_handler
          in
          exit_early u t;
          if handler < 0 then begin
            M.abort t M.err_type;
            stopped
          end
          else begin
            Stats.trap t.M.stats ~checking overhead;
            t.M.regs.(Reg.tr0) <- a;
            t.M.regs.(Reg.tr1) <- b;
            t.M.trap_dest <- rd;
            t.M.regs.(Reg.epc) <- resume;
            t.M.pending_load <- -1;
            handler
          end
        end
  | Insn.Settd rs ->
      fun t ->
        M.set_reg t t.M.trap_dest t.M.regs.(rs);
        next t
  | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ | Insn.Jr _
  | Insn.Jalr _ | Insn.Rett | Insn.Trap _ | Insn.Halt ->
      assert false

(* --- Compilation. --- *)

(* Compile the expected path of [segs] into one continuation chain with
   one entry delta, building right to left so each junction knows the
   chain, the pre-summed statistics and the pre-paid fuel of everything
   after it.  The statistics come from one backward sweep: [acc] holds
   the expected-path units to the right of the point being compiled, so
   every undo and guard delta is a snapshot of it, and after the head
   it holds the entry delta.  Off-path slot deltas, which do not depend
   on the expected path, are swept through a second, scratch [Stats.t]. *)
let compile_trace (m : M.t) ts (segs : seg array) exit_pc : M.trace =
  let hw = m.M.hw in
  let code = m.M.code in
  let acc = Stats.create () and scratch = Stats.create () in
  let snap s = M.register_delta m ts (Stats.compress s) in
  (* The delta of one unit charged on its own. *)
  let snap_unit charge =
    Stats.clear scratch;
    charge scratch;
    snap scratch
  in
  let k = Array.length segs in
  let slots_run i =
    (* Annulled only when the expected path falls through a squashing
       branch. *)
    let s = segs.(i) in
    not
      (s.sg_squash
      && match s.sg_jct with Cond { expect_taken; _ } -> not expect_taken | _ -> false)
  in
  (* The cross-junction in-flight load reaching segment [i]'s first
     instruction — statically the previous junction's second delay slot
     (annulled slots leave none).  The trace entry keeps one dynamic
     probe instead. *)
  let cross_prev i =
    if i = 0 then None
    else if slots_run (i - 1) then Some segs.(i - 1).sg_s2
    else None
  in
  let steps_of i = segs.(i).sg_len + 1 in
  let total_steps = ref 0 in
  for i = 0 to k - 1 do
    total_steps := !total_steps + steps_of i
  done;
  (* [chain]: the continuation at the start of the segment after the one
     being compiled; seeded with the trace exit, which latches the
     expected path's in-flight load for the next dispatch. *)
  let final_pl =
    if slots_run (k - 1) then exit_pl_of segs.(k - 1).sg_s2.Image.insn
    else -1
  in
  let chain =
    ref
      (fun (t : M.t) ->
        t.M.pending_load <- final_pl;
        exit_pc)
  in
  let refund_after = ref 0 in
  for i = k - 1 downto 0 do
    let s = segs.(i) in
    let l = s.sg_pc and len = s.sg_len and c = s.sg_stop in
    let ra_ref = !refund_after in
    let cont = !chain in
    let post_pl = exit_pl_of s.sg_s2.Image.insn in
    let annot = s.sg_term.Image.annot in
    (* The slot pair flowing into [next], swept through [a]: each slot
       owes back what [a] holds when it is compiled, and both slots are
       left in [a]. *)
    let slot_pair a ~refund next =
      let s2op = compile_op hw s.sg_s2 ~pc:c ~suffix:a ~snap ~refund ~next in
      charge_insn a (Some s.sg_s1) s.sg_s2;
      let s1op = compile_op hw s.sg_s1 ~pc:c ~suffix:a ~snap ~refund ~next:s2op in
      charge_insn a None s.sg_s1;
      s1op
    in
    (* On-path slot chain: an in-slot dynamic exit undoes the slot
       remainder and every later segment (the slots ride the junction's
       retirement, so only later segments' fuel is refunded). *)
    let on_slots cont2 = slot_pair acc ~refund:ra_ref cont2 in
    (* Off-path slot chain: runs after a guard already rolled back every
       later segment, with the slot pair's own statistics in force, so
       an in-slot exit owes only the unexecuted slot remainder; leaves
       the pair in [scratch]. *)
    let off_slots pc_off =
      Stats.clear scratch;
      slot_pair scratch ~refund:0 (fun (t : M.t) ->
          t.M.pending_load <- post_pl;
          pc_off)
    in
    (* Each junction leaves the sweep holding this segment's slots (or
       its annul accounting) on top of the later segments. *)
    let jchain : chain_fn =
      match s.sg_jct with
      | Jump { link } ->
          let base = on_slots cont in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.regs.(Reg.ra) <- ra_v;
              base t
          else base
      | Indirect { rs; link } ->
          (* Slots run before the target is known; the guard then tests
             the latched target against the expected successor. *)
          let expected = s.sg_next in
          let d_suffix = snap acc in
          let guard (t : M.t) =
            if t.M.jump_target = expected then cont t
            else begin
              count d_suffix (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              t.M.pending_load <- post_pl;
              t.M.jump_target
            end
          in
          let ch = on_slots guard in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              t.M.regs.(Reg.ra) <- ra_v;
              ch t
          else
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              ch t
      | Cond { expect_taken; target } ->
          let fall = c + 3 in
          let pc_off = if expect_taken then fall else target in
          let test = cond_test hw s.sg_term in
          if not s.sg_squash then begin
            (* Slots run on both paths with identical statistics; the
               side exit only owes the later segments. *)
            let d_suffix = snap acc in
            let on = on_slots cont in
            let off_chain = off_slots pc_off in
            let off (t : M.t) =
              count d_suffix (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              off_chain t
            in
            if expect_taken then fun t -> if test t then on t else off t
            else fun t -> if test t then off t else on t
          end
          else if expect_taken then begin
            (* Expected taken: slot statistics are pre-summed; falling
               through annuls them — undo slots and later segments, then
               charge the annul cycles the reference charges. *)
            let on = on_slots cont in
            let d_undo = snap acc in
            let d_annul = snap_unit (fun u -> Stats.annul u annot) in
            let off (t : M.t) =
              count d_undo (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              count d_annul 1 t;
              t.M.pending_load <- -1;
              fall
            in
            fun t -> if test t then on t else off t
          end
          else begin
            (* Expected fall-through: the annul accounting is pre-summed
               and the path continues with nothing dynamic; taking the
               branch undoes it (and the later segments), then runs the
               slots for real — applying their statistics first, since
               the pre-sum deliberately left them out. *)
            Stats.annul acc annot;
            let d_undo = snap acc in
            let off_chain = off_slots target in
            let d_slots = snap scratch in
            let off (t : M.t) =
              count d_undo (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              count d_slots 1 t;
              off_chain t
            in
            fun t -> if test t then off t else cont t
          end
    in
    (* The terminator, then the body threaded into the junction,
       innermost first. *)
    charge_insn acc
      (if len > 0 then Some code.(c - 1) else cross_prev i)
      s.sg_term;
    let body = ref jchain in
    for u = len - 1 downto 0 do
      let e = code.(l + u) in
      body :=
        compile_op hw e ~pc:(l + u) ~suffix:acc ~snap
          ~refund:(len - u + ra_ref) ~next:!body;
      charge_insn acc (if u = 0 then cross_prev i else Some code.(l + u - 1)) e
    done;
    chain := !body;
    refund_after := ra_ref + steps_of i
  done;
  let head = segs.(0).sg_pc in
  let d_entry = snap acc in
  let body0 = !chain in
  (* The one dynamic interlock probe: the trace's first instruction
     against a load in flight from whatever ran before it. *)
  let er1, er2 = read_regs code.(head).Image.insn in
  let exec =
    if er1 < 0 && er2 < 0 then fun (t : M.t) ->
      count d_entry 1 t;
      body0 t
    else
      let d_probe = snap_unit Stats.interlock in
      fun (t : M.t) ->
        let pl = t.M.pending_load in
        if pl >= 0 && (pl = er1 || pl = er2) then count d_probe 1 t;
        count d_entry 1 t;
        body0 t
  in
  {
    M.tr_pc = head;
    M.tr_steps = !total_steps;
    M.tr_exit = exit_pc;
    M.tr_exec = exec;
    M.tr_next = None;
  }

(* --- Plans: the pure-data projection of a grown superblock. --- *)

(* Everything [compile_trace] consumes beyond the planned skeleton —
   instruction entries, body lengths, squash flags — is a function of
   the image, so the projection keeps only the path decisions. *)
let plan_of_segs (segs : seg array) exit_pc : Plan.trace =
  {
    Plan.pt_segs =
      Array.map
        (fun s ->
          {
            Plan.ps_pc = s.sg_pc;
            ps_stop = s.sg_stop;
            ps_jct = s.sg_jct;
            ps_next = s.sg_next;
          })
        segs;
    pt_exit = exit_pc;
  }

(* --- Formation (called by the run loop at the hot threshold). --- *)

let formed = Metrics.counter "trace.formed"
let form_s = Metrics.counter "trace.form_s"
let form_words = Metrics.counter "trace.form_words"

(* Formation is timed and its allocation counted for the [traces:]
   diagnostics; [Gc.minor_words] is per domain, so the difference is
   this call's own allocation even while other domains run. *)
let form (t : M.t) head =
  match t.M.tstate with
  | None -> ()
  | Some ts ->
      if ts.M.ts_traces.(head) = None then
        Metrics.time form_s (fun () ->
            let w0 = Gc.minor_words () in
            (match grow t ts head with
            | Ok (segs, exit_pc) ->
                ts.M.ts_traces.(head) <- Some (compile_trace t ts segs exit_pc);
                ts.M.ts_plans <- plan_of_segs segs exit_pc :: ts.M.ts_plans;
                Metrics.add formed 1
            | Error retryable ->
                (* Retryable heads re-arm the heat counter and try again
                   once more edge profile has accumulated; structural
                   failures stay saturated so the check never repeats. *)
                if retryable then ts.M.ts_heat.(head) <- 0);
            Metrics.add form_words (int_of_float (Gc.minor_words () -. w0)))

(* --- Attachment. --- *)

let attach ?(threshold = default_threshold) (m : M.t) =
  let n = Array.length m.M.code in
  match m.M.tstate with
  | Some _ -> ()
  | None ->
      m.M.tstate <-
        Some
          {
            M.ts_leader = leaders m;
            M.ts_traces = Array.make n None;
            M.ts_heat = Array.make n 0;
            M.ts_succ1 = Array.make n (-1);
            M.ts_cnt1 = Array.make n 0;
            M.ts_succ2 = Array.make n (-1);
            M.ts_cnt2 = Array.make n 0;
            M.ts_threshold = threshold;
            M.ts_form = form;
            M.ts_plans = [];
            M.ts_dirty = false;
            M.ts_deltas = [||];
            M.ts_ndeltas = 0;
          }
