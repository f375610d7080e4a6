(** The trace compiler's building blocks: the static control-flow
    graph, the static statistics builder, and the one instruction
    compiler of the traced engine.

    {!leaders} marks the basic-block leaders of a machine's code (the
    entry point, every code label, branch/jump targets, fall-throughs
    after a control instruction and its two delay slots, and the
    resumption point after each generic-arithmetic instruction): the
    pcs the traced run loop profiles and {!Trace} grows superblocks
    from.  {!shape} gives the straight-line run a leader begins, with
    its terminator and delay slots.

    A compiled path pre-sums everything statically knowable into one
    [Machine.delta], counted once on entry: instruction and class
    counts, per-slot annotation cycles, ALU and wide-immediate cycle
    charges, load-use interlocks between adjacent instructions (fully
    determined by the instruction pair), and each terminator's issue
    cycle.  Deltas are not applied to [Stats] as the path runs: each
    has an id in the trace state, the closures add one to or take one
    from the running machine's count for it, and [Machine.run] folds
    [count * delta] into [Stats] when it returns.  The remaining
    per-instruction work is threaded as a continuation chain:
    {!compile_op} turns each simple instruction into a closure doing
    only the genuinely dynamic part (register writes, memory traffic,
    trap and abort detection) that tail-calls the next, with the
    operator of a never-trapping operation inlined; no-ops and writes
    to the zero register vanish entirely.  {!cond_test} likewise
    compiles every branch condition.  A dynamic early exit (division by
    zero, a checked-access type trap, a generic-arithmetic trap, a
    memory fault) uncounts the pre-summed statistics of the
    instructions that did not execute and refunds their pre-paid fuel,
    so the engine stays bit-identical to the reference interpreter —
    statistics, abort codes, machine errors and fuel trajectory
    (enforced by the engine differential suite).

    Delay slots are compiled into their branch only when both slot
    instructions are simple (not control, not generic arithmetic): the
    branch's [interlock_check] resets [pending_load], so slot interlocks
    are static — the first slot never interlocks and the second only
    against a load in the first.  Register-indirect jumps latch their
    target in [Machine.jump_target] before the slots run (a slot may
    clobber the register).  Slots ride their branch's top-level
    retirement, so they consume no fuel of their own.  A branch whose
    slots are not simple, or run off the end of code, has no terminator
    in its {!shape}, so no trace grows through it and the reference
    [Machine.step] runs it.  Compiler-produced code never builds such
    slots; only raw images do. *)

module M = Machine
module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Word = Tagsim_mipsx.Word
module Image = Tagsim_asm.Image

(* A compiled continuation chain returns the successor pc so the dispatch
   loop never round-trips through [t.pc]; [stopped] (any negative value)
   signals that the outcome has been decided instead. *)
type chain_fn = M.t -> int

let stopped = -1

let nop_klass = Insn.klass_index Insn.K_nop

(* Counter-array geometry, taken from a throwaway Stats value so this
   module cannot drift from the Stats layout. *)
let n_kind_slots = Array.length (Stats.create ()).Stats.kind_cycles
let n_klass_slots = Array.length (Stats.create ()).Stats.klass_insns

(* --- Static statistics: one sparse builder for superblock traces. ---

   Each unit of a trace — an instruction, or the annulled slot
   pair of a squashing branch — contributes a compact immediate int.  A
   compiler sweeps its units once, right to left, adding each to one
   dense running accumulator; since a dynamic exit owes back exactly
   the statistics of the units after it, every entry, guard and undo
   delta is a sparse snapshot of that accumulator taken at the right
   point of the sweep. *)

(** One unit's static statistics, packed: bits 0-5 the kind slot its
    cycles are charged to, bits 6-9 its class index plus one (0: it
    retires no instruction), bit 10 a load-use interlock against its
    predecessor, bit 11 set when its cycles are annulled slot cycles
    (also counted as squashed), bits 12 and up its cycles. *)
type ustat = int

let klass_shift = 6
let interlock_bit = 1 lsl 10
let annul_bit = 1 lsl 11
let cycles_shift = 12
let () = assert (n_kind_slots <= 64 && n_klass_slots < 16)

let ustat ?(interlock = false) ~klass ~slot cycles : ustat =
  slot
  lor ((klass + 1) lsl klass_shift)
  lor (if interlock then interlock_bit else 0)
  lor (cycles lsl cycles_shift)

(* Mirrors the reference's squashed-slot accounting: two annulled slot
   cycles charged to the branch's own annotation slot.  Used by the
   trace compiler when the expected path falls through a squashing
   branch, making the annul statically known. *)
let squash_stat si : ustat = si lor annul_bit lor (2 lsl cycles_shift)

type acc = {
  mutable a_cycles : int;
  mutable a_insns : int;
  mutable a_interlocks : int;
  mutable a_squashed : int;
  a_kind : int array; (* n_kind_slots *)
  a_klass : int array; (* n_klass_slots *)
}

let acc_create () =
  {
    a_cycles = 0;
    a_insns = 0;
    a_interlocks = 0;
    a_squashed = 0;
    a_kind = Array.make n_kind_slots 0;
    a_klass = Array.make n_klass_slots 0;
  }

let acc_clear a =
  a.a_cycles <- 0;
  a.a_insns <- 0;
  a.a_interlocks <- 0;
  a.a_squashed <- 0;
  Array.fill a.a_kind 0 n_kind_slots 0;
  Array.fill a.a_klass 0 n_klass_slots 0

(* Mirrors [Stats.charge] with the annotation slot pre-resolved. *)
let acc_charge a si c =
  a.a_cycles <- a.a_cycles + c;
  a.a_kind.(si) <- a.a_kind.(si) + c

(* Mirrors [Stats.count_insn] and [Stats.charge] for the unit's own
   retirement, and [Machine.interlock_check] firing (one no-op cycle)
   for its interlock. *)
let acc_add a (u : ustat) =
  let cy = u lsr cycles_shift in
  if cy <> 0 then begin
    acc_charge a (u land 63) cy;
    if u land annul_bit <> 0 then a.a_squashed <- a.a_squashed + cy
  end;
  let k = (u lsr klass_shift) land 15 in
  if k <> 0 then begin
    a.a_insns <- a.a_insns + 1;
    a.a_klass.(k - 1) <- a.a_klass.(k - 1) + 1
  end;
  if u land interlock_bit <> 0 then begin
    a.a_cycles <- a.a_cycles + 1;
    a.a_interlocks <- a.a_interlocks + 1;
    a.a_insns <- a.a_insns + 1;
    a.a_klass.(nop_klass) <- a.a_klass.(nop_klass) + 1
  end

let count_nonzero arr =
  let n = ref 0 in
  for i = 0 to Array.length arr - 1 do
    if Array.unsafe_get arr i <> 0 then incr n
  done;
  !n

(* Write [arr]'s non-zero slots into [d] as pairs from [pos] on. *)
let fill_pairs d pos arr =
  let p = ref pos in
  for i = 0 to Array.length arr - 1 do
    let v = Array.unsafe_get arr i in
    if v <> 0 then begin
      d.(!p) <- i;
      d.(!p + 1) <- v;
      p := !p + 2
    end
  done

(* The sparse snapshot of [a], in [Machine.delta]'s layout. *)
let compress a : M.delta =
  let kind_end = 5 + (2 * count_nonzero a.a_kind) in
  let d = Array.make (kind_end + (2 * count_nonzero a.a_klass)) 0 in
  d.(0) <- a.a_cycles;
  d.(1) <- a.a_insns;
  d.(2) <- a.a_interlocks;
  d.(3) <- a.a_squashed;
  d.(4) <- kind_end;
  fill_pairs d 5 a.a_kind;
  fill_pairs d kind_end a.a_klass;
  d

(* Add [n] (+1 applied, -1 undone) to delta [id]'s count in the running
   machine.  [Machine.register_delta] sized [t.counts] to cover [id], so
   the unchecked accesses cannot go wrong. *)
let count id n (t : M.t) =
  let c = t.M.counts in
  Array.unsafe_set c id (Array.unsafe_get c id + n)

(* The dynamic trace-entry interlock (the one probe compilation cannot
   remove: whatever ran before the trace may end in a load): a unit
   that retires only the interlock's no-op. *)
let interlock_stat : ustat = interlock_bit

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

let exit_pl_of (insn : int Insn.t) =
  match insn with Insn.Ld (_, rd, _, _) -> rd | _ -> -1

(* --- Static control flow. --- *)

let squash_of (e : Image.entry) =
  match e.Image.insn with
  | Insn.B (b, _) -> b.Insn.squash
  | Insn.Bi (b, _) -> b.Insn.bi_squash
  | Insn.Btag (b, _) -> b.Insn.bt_squash
  | _ -> false

(* The static layout of the basic block led by an address: where the
   straight-line run stops, its terminator, and the terminator's two
   delay slots ([None] for the slotless control instructions).  A block
   has no terminator when it falls off the end of code, or when it stops
   before a branch whose slots cannot be compiled (a slot holds a
   control or generic-arithmetic instruction, or lies past the end of
   code).  The scan runs straight through intermediate leaders, as the
   run loop's straight-line runs do.  The trace compiler walks these
   shapes along the hot path. *)
type shape = {
  sh_stop : int; (* the terminator, or the first address past the block *)
  sh_term : Image.entry option; (* None: the block ends at [sh_stop] *)
  sh_slots : (Image.entry * Image.entry) option;
  sh_squash : bool;
}

let fusible (e : Image.entry) =
  match e.Image.insn with
  | Insn.Add_gen _ | Insn.Sub_gen _ -> false
  | i -> not (Insn.is_control i)

let shape (m : M.t) l =
  let code = m.M.code in
  let n = Array.length code in
  let rec scan j =
    if j >= n || Insn.is_control code.(j).Image.insn then j else scan (j + 1)
  in
  let stop = scan l in
  let no_term =
    { sh_stop = stop; sh_term = None; sh_slots = None; sh_squash = false }
  in
  if stop >= n then no_term
  else
    let e = code.(stop) in
    match e.Image.insn with
    | Insn.Rett | Insn.Trap _ | Insn.Halt ->
        { no_term with sh_term = Some e }
    | _ (* a branch or jump, with two delay slots *) ->
        if stop + 2 < n && fusible code.(stop + 1) && fusible code.(stop + 2)
        then
          {
            sh_stop = stop;
            sh_term = Some e;
            sh_slots = Some (code.(stop + 1), code.(stop + 2));
            sh_squash = squash_of e;
          }
        else no_term

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

(* The statically-knowable statistics of one instruction: its count,
   its cycle charge when the charge is unconditional on the success
   path (control instructions issue in one cycle), and the load-use
   interlock with its predecessor. *)
let contribution (prev : Image.entry option) (e : Image.entry) : ustat =
  let insn = e.Image.insn in
  let cycles =
    match insn with
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
        1
  in
  let interlock =
    match prev with
    | Some pe -> interlocks_after pe.Image.insn insn
    | None -> false
  in
  ustat ~interlock
    ~klass:(Insn.klass_index (Insn.klass insn))
    ~slot:(Stats.slot e.Image.annot) cycles

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
   unit after this one.  An instruction that can leave early snapshots
   its undo delta from it here, at compile time, and [snap] registers it
   under an id; on a dynamic exit the closure uncounts that id, refunds
   its pre-paid fuel, and does not call [next]. *)
let compile_op (hw : M.hw) (e : Image.entry) ~pc:p ~(suffix : acc)
    ~(snap : acc -> int) ~refund ~(next : chain_fn) : chain_fn =
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
      let si = Stats.slot e.Image.annot in
      acc_charge suffix si c;
      let u = snap suffix in
      acc_charge suffix si (-c);
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
      let si = Stats.slot e.Image.annot and c = M.alu_cycles op in
      acc_charge suffix si c;
      let u = snap suffix in
      acc_charge suffix si (-c);
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
      let garith_si =
        Stats.slot
          (Annot.make ~checking:e.Image.annot.Annot.checking Annot.Garith)
      in
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
            let s = t.M.stats in
            s.Stats.traps <- s.Stats.traps + 1;
            s.Stats.trap_cycles <- s.Stats.trap_cycles + overhead;
            s.Stats.cycles <- s.Stats.cycles + overhead;
            s.Stats.kind_cycles.(garith_si) <-
              s.Stats.kind_cycles.(garith_si) + overhead;
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
