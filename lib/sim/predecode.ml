(** Per-instruction closures for the delay slots that fusion cannot
    fuse.

    [compile_simple] compiles one {!Tagsim_asm.Image.entry} in a delay
    slot into a closure [Machine.t -> unit] with everything that the
    reference interpreter recomputes per retired instruction resolved at
    compile time: operand registers, ALU cycle costs, wide-immediate charges
    ({!Tagsim_mipsx.Word.imm_cycles}), the dense {!Stats.slot} index of
    the annotation, the instruction-class index and the registers probed
    by the load-use interlock check.  {!Fuse} runs the delay slots it
    cannot fuse through these closures, and shares the pre-resolved
    [alu_fn]/[cond_fn] evaluators.

    The closures must replicate the reference semantics {e exactly},
    statistics included: the engine differential suite asserts
    bit-identical {!Stats.t} on every registry benchmark.  Each code
    block below names the [Machine] function it mirrors. *)

module M = Machine
module Insn = Tagsim_mipsx.Insn
module Reg = Tagsim_mipsx.Reg
module Word = Tagsim_mipsx.Word
module Image = Tagsim_asm.Image

let nop_klass = Insn.klass_index Insn.K_nop

(* Mirrors [Machine.interlock_check]: [r1]/[r2] are the registers the
   instruction reads, resolved at decode time (-1 = none; the [pl >= 0]
   guard keeps -1 from ever matching). *)
let interlock (t : M.t) r1 r2 =
  let pl = t.M.pending_load in
  if pl >= 0 && (pl = r1 || pl = r2) then begin
    let s = t.M.stats in
    s.Stats.cycles <- s.Stats.cycles + 1;
    s.Stats.interlocks <- s.Stats.interlocks + 1;
    s.Stats.insns <- s.Stats.insns + 1;
    s.Stats.klass_insns.(nop_klass) <- s.Stats.klass_insns.(nop_klass) + 1
  end;
  t.M.pending_load <- -1

(* Mirrors [Stats.count_insn] with the class index pre-resolved. *)
let count (t : M.t) ki =
  let s = t.M.stats in
  s.Stats.insns <- s.Stats.insns + 1;
  s.Stats.klass_insns.(ki) <- s.Stats.klass_insns.(ki) + 1

(* Mirrors [Stats.charge] with the annotation slot pre-resolved. *)
let charge (t : M.t) si c =
  let s = t.M.stats in
  s.Stats.cycles <- s.Stats.cycles + c;
  s.Stats.kind_cycles.(si) <- s.Stats.kind_cycles.(si) + c

(* Registers read by an instruction as a pre-resolved pair (at most two;
   -1 = none), replacing the per-retirement [Insn.reads] list. *)
let read_regs (insn : int Insn.t) =
  match Insn.reads insn with
  | [] -> (-1, -1)
  | [ r ] -> (r, -1)
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* Pre-resolved ALU evaluator (mirrors [Machine.alu_eval]). *)
let alu_fn (op : Insn.alu) =
  match op with
  | Insn.Add -> Word.add
  | Insn.Sub -> Word.sub
  | Insn.And -> Word.logand
  | Insn.Or -> Word.logor
  | Insn.Xor -> Word.logxor
  | Insn.Nor -> Word.lognor
  | Insn.Slt -> fun a b -> if Word.lt_signed a b then 1 else 0
  | Insn.Sltu -> fun a b -> if Word.lt_unsigned a b then 1 else 0
  | Insn.Sll -> Word.sll
  | Insn.Srl -> Word.srl
  | Insn.Sra -> Word.sra
  | Insn.Mul -> Word.mul
  | Insn.Div -> Word.div
  | Insn.Rem -> Word.rem

(* Pre-resolved branch-condition evaluator (mirrors
   [Machine.cond_eval]). *)
let cond_fn (c : Insn.cond) =
  match c with
  | Insn.Eq -> fun a b -> a = b
  | Insn.Ne -> fun a b -> a <> b
  | Insn.Lt -> fun a b -> Word.to_signed a < Word.to_signed b
  | Insn.Ge -> fun a b -> Word.to_signed a >= Word.to_signed b
  | Insn.Gt -> fun a b -> Word.to_signed a > Word.to_signed b
  | Insn.Le -> fun a b -> Word.to_signed a <= Word.to_signed b

(* --- Delay-slot bodies (mirror [Machine.exec_simple] with [in_slot]
   set, without the pc advance). --- *)

let compile_simple (hw : M.hw) (e : Image.entry) : M.t -> unit =
  let insn = e.Image.insn in
  let si = Stats.slot e.Image.annot in
  let ki = Insn.klass_index (Insn.klass insn) in
  let r1, r2 = read_regs insn in
  let mem_bytes = hw.M.mem_bytes in
  let mem_mask = mem_bytes - 1 in
  (* Effective-address computation per memory mode (mirrors
     [Machine.effective]); returns -1 for a type trap. *)
  let effective_fn (mode : Insn.mem_mode) off =
    let offw = Word.of_int off in
    match mode with
    | Insn.Plain ->
        if e.Image.speculative then fun (_t : M.t) base ->
          let addr = Word.add base offw in
          if addr >= mem_bytes then addr land mem_mask else addr
        else fun (t : M.t) base ->
          let addr = Word.add base offw in
          if addr >= mem_bytes then
            M.errorf "unmasked address 0x%08x at pc %d" addr t.M.pc
          else addr
    | Insn.Tag_ignoring ->
        let amask = hw.M.addr_mask in
        fun _t base -> Word.add base offw land amask
    | Insn.Checked expected ->
        let shift = hw.M.tag_shift and width = hw.M.tag_width in
        let exp_shifted = expected lsl shift in
        fun _t base ->
          if Word.field ~shift ~width base <> expected then -1
          else Word.sub (Word.add base offw) exp_shifted land mem_mask
  in
  match insn with
  | Insn.Alu (op, rd, rs, rt) ->
      let cyc = M.alu_cycles op in
      let ev = alu_fn op in
      if op = Insn.Div || op = Insn.Rem then fun t ->
        interlock t r1 r2;
        count t ki;
        let b = t.M.regs.(rt) in
        if b = 0 then M.abort t M.err_div0
        else begin
          charge t si cyc;
          if rd <> Reg.zero then
            t.M.regs.(rd) <- Word.of_int (ev t.M.regs.(rs) b)
        end
      else fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si cyc;
        if rd <> Reg.zero then
          t.M.regs.(rd) <- Word.of_int (ev t.M.regs.(rs) t.M.regs.(rt))
  | Insn.Alui (op, rd, rs, imm) ->
      if (op = Insn.Div || op = Insn.Rem) && imm = 0 then fun t ->
        interlock t r1 r2;
        count t ki;
        M.abort t M.err_div0
      else
        let cyc = M.alu_cycles op in
        let ev = alu_fn op in
        let immw = Word.of_int imm in
        fun t ->
          interlock t r1 r2;
          count t ki;
          charge t si cyc;
          if rd <> Reg.zero then
            t.M.regs.(rd) <- Word.of_int (ev t.M.regs.(rs) immw)
  | Insn.Li (rd, imm) ->
      let cyc = Word.imm_cycles imm in
      let v = Word.of_int imm in
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si cyc;
        if rd <> Reg.zero then t.M.regs.(rd) <- v
  | Insn.La (rd, addr) ->
      let cyc = Word.imm_cycles addr in
      let v = Word.of_int addr in
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si cyc;
        if rd <> Reg.zero then t.M.regs.(rd) <- v
  | Insn.Mv (rd, rs) ->
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1;
        if rd <> Reg.zero then t.M.regs.(rd) <- t.M.regs.(rs)
  | Insn.Ld (mode, rd, rs, off) ->
      let eff = effective_fn mode off in
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1;
        let addr = eff t t.M.regs.(rs) in
        if addr < 0 then M.abort t M.err_type
        else begin
          if rd <> Reg.zero then t.M.regs.(rd) <- M.read_word t addr
          else ignore (M.read_word t addr);
          t.M.pending_load <- rd
        end
  | Insn.St (mode, rs, rt, off) ->
      let eff = effective_fn mode off in
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1;
        let addr = eff t t.M.regs.(rs) in
        if addr < 0 then M.abort t M.err_type
        else M.write_word t addr t.M.regs.(rt)
  | Insn.Add_gen (rd, rs, rt) | Insn.Sub_gen (rd, rs, rt) ->
      (* A delay slot cannot take the resumable trap: the reference
         stops with a machine error instead. *)
      let is_add = match insn with Insn.Add_gen _ -> true | _ -> false in
      let is_int = hw.M.is_int_item in
      let overflowed = hw.M.gen_overflowed in
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1;
        let a = t.M.regs.(rs) and b = t.M.regs.(rt) in
        let result = if is_add then Word.add a b else Word.sub a b in
        if is_int a && is_int b && not (overflowed a b result) then begin
          if rd <> Reg.zero then t.M.regs.(rd) <- result
        end
        else M.errorf "generic-arithmetic trap in a delay slot at pc %d" t.M.pc
  | Insn.Settd rs ->
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1;
        M.set_reg t t.M.trap_dest t.M.regs.(rs)
  | Insn.Nop ->
      fun t ->
        interlock t r1 r2;
        count t ki;
        charge t si 1
  | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ | Insn.Jr _
  | Insn.Jalr _ | Insn.Rett | Insn.Trap _ | Insn.Halt ->
      fun t -> M.errorf "control instruction in a delay slot at pc %d" t.M.pc
