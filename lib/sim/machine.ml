(** The instruction-level simulator.

    Cost model (Section 2 of the paper): execution time is instruction
    count.  Every instruction costs one cycle, with these exceptions, all
    visible to the paper's accounting:

    - wide immediates ([li]/[la] that do not fit the 17-bit immediate field)
      cost two cycles, standing for the two-instruction constant sequence;
    - multiply costs 8 and divide/remainder 16 cycles, standing for the
      multiply-step/divide-step software sequences of MIPS-X;
    - a load followed immediately by a use of the loaded register costs one
      extra cycle, standing for the assembler-inserted load-delay no-op
      (counted in the no-op class, as in Figure 2);
    - annulled slots of squashing branches cost their cycles and are counted
      in the squashed class (Figure 2);
    - traps charge a fixed overhead ([trap_overhead] cycles) plus the
      handler's own instructions. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Word = Tagsim_mipsx.Word
module Image = Tagsim_asm.Image

exception Machine_error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

(** Execution engine selector.  [`Reference] re-decodes every retired
    instruction (the original interpreter, kept as the semantic
    oracle); [`Traced] runs fused basic-block closures ({!Fuse}) under
    an edge-heat profile and promotes hot paths into superblock traces
    compiled by {!Trace} (attached with {!Trace.attach}), dispatching
    once per trace on the hot paths.  Both engines must produce
    bit-identical statistics.  {!run} picks the loop from the attached
    state, not from this type: it names the engines for the CLI, the
    measurement keys and the fuzzer. *)
type engine = [ `Reference | `Traced ]

let engine_name : engine -> string = function
  | `Reference -> "reference"
  | `Traced -> "traced"

let engine_all : engine list = [ `Reference; `Traced ]

let engine_by_name s : engine option =
  List.find_opt (fun e -> engine_name e = s) engine_all

(** Hardware configuration: tag geometry and the semantics of the
    tag-aware instructions.  Supplied by the tag scheme in use. *)
type hw = {
  mem_bytes : int; (* power of two *)
  tag_shift : int;
  tag_width : int;
  addr_mask : int; (* applied by tag-ignoring and checked memory ops *)
  is_int_item : int -> bool; (* hardware integer test, for Add_gen *)
  gen_overflowed : int -> int -> int -> bool;
      (* a b result: did int arithmetic overflow the Lisp integer range? *)
  trap_overhead : int;
}

type outcome = Halted of int | Aborted of int

type t = {
  hw : hw;
  code : Image.entry array;
  code_entries : int array;
      (* addresses of all code labels, for basic-block leader detection *)
  mutable mem : int array;
      (* the materialised prefix of word memory: a power of two of at
         least 1024 words, grown by doubling in [write_word]; words past
         its end read as 0 *)
  mem_words : int; (* addressable size in words: hw.mem_bytes / 4 *)
  regs : int array;
  mutable pc : int;
  mutable pending_load : int; (* register with an in-flight load, or -1 *)
  mutable jump_target : int;
      (* scratch for fused register-indirect jumps: the target is read
         before the delay slots run (they may clobber the register) and
         consumed by the slot chain's final pc update *)
  mutable trap_dest : int; (* destination register of a trapped insn *)
  mutable gen_add_handler : int; (* code address, -1 = none *)
  mutable gen_sub_handler : int;
  stats : Stats.t;
  mutable outcome : outcome option;
  mutable fuel : int;
  mutable in_slot : bool; (* executing a delay-slot instruction *)
  mutable blocks : block option array;
      (* one fused block per basic-block leader, indexed by leader pc
         (None at a leader on a branch with unfusible delay slots),
         installed by Fuse.attach; [||] until then *)
  mutable tstate : tstate option;
      (* trace-engine state (heat/edge profile and formed traces),
         installed by Trace.attach; None until then, and [run] stays on
         the reference interpreter *)
}

(* A fused basic block: [b_exec] retires the whole straight-line run
   (body, terminator and its delay slots) in one call, with everything
   statically knowable pre-summed at fuse time, and returns the next
   program counter — or a negative value once the outcome is decided —
   so the hot dispatch path never round-trips through [t.pc] (the slow
   paths below re-materialise it).  [b_steps] is the number of top-level
   retirements the block performs when it runs to completion (delay
   slots ride their branch's retirement); the run loop pre-pays that
   much fuel before entry (closures refund the unretired remainder on an
   early dynamic exit).  Blocks are immutable, so block arrays may be
   shared between machines running in parallel domains. *)
and block = {
  b_pc : int; (* leader address of this block *)
  b_steps : int;
  b_exec : t -> int;
}

(* Trace-engine state, one per attached code image (shareable between
   machines running the same image, like [blocks]).  [ts_heat] counts
   block entries per leader while non-negative; crossing [ts_threshold]
   saturates the counter to [min_int] and calls [ts_form], which either
   installs a superblock trace in [ts_traces] (permanently hot) or —
   when the head could become formable once more edge profile
   accumulates — resets the counter to retry.  [ts_succ1]/[ts_cnt1] and
   [ts_succ2]/[ts_cnt2] are a two-entry successor profile per leader
   (CLOCK-style decay on conflict), consulted by trace formation to pick
   the dominant path.  All of it is racily shared across domains by
   design: a torn or stale read can only delay or re-run formation,
   never corrupt execution — a memoised trace is validated against its
   immutable [tr_pc] before it runs.
   [ts_plans] mirrors [ts_traces] as pure data: one [Plan.trace] per
   formed trace.  [ts_dirty] is never set: it stays only for tagbench/,
   which still reads it. *)
and tstate = {
  ts_traces : trace option array;
  ts_heat : int array;
  ts_succ1 : int array;
  ts_cnt1 : int array;
  ts_succ2 : int array;
  ts_cnt2 : int array;
  ts_threshold : int;
  ts_form : t -> int -> unit;
  mutable ts_plans : Plan.trace list; (* newest first *)
  mutable ts_dirty : bool;
}

(* A compiled superblock trace: [tr_exec] retires the whole expected
   path ([tr_blocks] fused blocks, [tr_steps] top-level retirements,
   pre-paid like a block's) in one call and returns the next pc —
   [tr_exit] when the expected path ran to the end, some other pc after
   a guarded side exit (which has already rolled statistics and fuel
   back to the exact per-block values), or a negative value once the
   outcome is decided.  [tr_next] memoises the trace at [tr_exit] for
   direct trace chaining (a loop trace chains to itself); the memo is
   validated against the immutable [tr_pc], so a stale or torn read can
   only miss, never run the wrong trace. *)
and trace = {
  tr_pc : int; (* leader address of the trace head *)
  tr_blocks : int;
  tr_steps : int;
  tr_exit : int; (* successor pc of the expected path *)
  tr_exec : t -> int;
  mutable tr_next : trace option;
}

(* Error codes used by [Aborted]. *)
let err_type = 1
let err_bounds = 2
let err_mem = 3
let err_div0 = 4
let err_user_base = 16 (* Trap n aborts with code err_user_base + n *)

(* [n] doubled until it covers [words] words, capped at [limit]: the
   size of the materialised memory prefix. *)
let prefix_words ~limit n words =
  let rec double n = if n >= words then n else double (2 * n) in
  min limit (double n)

let create ?(fuel = 600_000_000) ~hw (image : Image.t) =
  if hw.mem_bytes land (hw.mem_bytes - 1) <> 0 then
    invalid_arg "mem_bytes must be a power of two";
  let mem_words = hw.mem_bytes / 4 in
  let data_words = Array.length image.Image.data_words in
  let mem = Array.make (prefix_words ~limit:mem_words 1024 data_words) 0 in
  Array.blit image.Image.data_words 0 mem 0 data_words;
  (* Sorted: [Hashtbl.fold] enumerates in an unspecified (hash-seeded)
     order, and the entry list must not vary from process to process. *)
  let code_entries =
    Hashtbl.fold (fun _ a acc -> a :: acc) image.Image.code_symbols []
    |> List.sort_uniq compare |> Array.of_list
  in
  {
    hw;
    code = image.Image.code;
    code_entries;
    mem;
    mem_words;
    regs = Array.make Reg.count 0;
    pc = 0;
    pending_load = -1;
    jump_target = 0;
    trap_dest = 0;
    gen_add_handler = -1;
    gen_sub_handler = -1;
    stats = Stats.create ();
    outcome = None;
    fuel;
    in_slot = false;
    blocks = [||];
    tstate = None;
  }

let set_gen_handlers t ~add ~sub =
  t.gen_add_handler <- add;
  t.gen_sub_handler <- sub

let reg t r = t.regs.(r)
let pc t = t.pc
let outcome t = t.outcome
let set_reg t r v = if r <> Reg.zero then t.regs.(r) <- Word.of_int v
let stats t = t.stats

(* The range guard is on the (possibly negative signed) byte address
   itself: [addr lsr 2] of a negative int is a huge positive index, so an
   [idx < 0] test after the shift could never fire — a wild pointer must
   fault on the address, not wrap.  Only the touched prefix of memory is
   materialised: the fast path is a hit in [t.mem]; a miss below
   [t.mem_words] reads as 0, or grows [t.mem] for a store. *)
let read_word t addr =
  if addr >= 0 && addr lsr 2 < Array.length t.mem then t.mem.(addr lsr 2)
  else if addr < 0 || addr lsr 2 >= t.mem_words then
    errorf "load fault at %d" addr
  else 0

(* Double [t.mem] until it covers word [idx] (< [t.mem_words]). *)
let grow t idx =
  let len = Array.length t.mem in
  let mem = Array.make (prefix_words ~limit:t.mem_words len (idx + 1)) 0 in
  Array.blit t.mem 0 mem 0 len;
  t.mem <- mem

let write_word t addr v =
  if addr >= 0 && addr lsr 2 < Array.length t.mem then
    t.mem.(addr lsr 2) <- Word.of_int v
  else if addr < 0 || addr lsr 2 >= t.mem_words then
    errorf "store fault at %d" addr
  else begin
    grow t (addr lsr 2);
    t.mem.(addr lsr 2) <- Word.of_int v
  end

(** Direct memory access for the host (loader, result decoding, perf
    counters). *)
let peek = read_word

let poke = write_word

let tag_of t w = Word.field ~shift:t.hw.tag_shift ~width:t.hw.tag_width w

let alu_cycles (op : Insn.alu) =
  match op with
  | Insn.Mul -> 8
  | Insn.Div | Insn.Rem -> 16
  | Insn.Add | Insn.Sub | Insn.And | Insn.Or | Insn.Xor | Insn.Nor | Insn.Slt
  | Insn.Sltu | Insn.Sll | Insn.Srl | Insn.Sra ->
      1

let alu_eval op a b =
  match (op : Insn.alu) with
  | Insn.Add -> Word.add a b
  | Insn.Sub -> Word.sub a b
  | Insn.And -> Word.logand a b
  | Insn.Or -> Word.logor a b
  | Insn.Xor -> Word.logxor a b
  | Insn.Nor -> Word.lognor a b
  | Insn.Slt -> if Word.lt_signed a b then 1 else 0
  | Insn.Sltu -> if Word.lt_unsigned a b then 1 else 0
  | Insn.Sll -> Word.sll a b
  | Insn.Srl -> Word.srl a b
  | Insn.Sra -> Word.sra a b
  | Insn.Mul -> Word.mul a b
  | Insn.Div -> Word.div a b
  | Insn.Rem -> Word.rem a b

let cond_eval (c : Insn.cond) a b =
  let sa = Word.to_signed a and sb = Word.to_signed b in
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> sa < sb
  | Insn.Ge -> sa >= sb
  | Insn.Gt -> sa > sb
  | Insn.Le -> sa <= sb

let abort t code = t.outcome <- Some (Aborted code)

(* Effective data address for a memory access. *)
let effective t (mode : Insn.mem_mode) base off ~speculative =
  let addr = Word.add base (Word.of_int off) in
  match mode with
  | Insn.Plain ->
      if addr >= t.hw.mem_bytes then
        if speculative then Some (addr land (t.hw.mem_bytes - 1))
        else errorf "unmasked address 0x%08x at pc %d" addr t.pc
      else Some addr
  | Insn.Tag_ignoring -> Some (addr land t.hw.addr_mask)
  | Insn.Checked expected ->
      if tag_of t base <> expected then None (* type trap *)
      else
        (* The verified tag is subtracted (not masked) out of the address:
           with low-order tags an index may have carried into the tag
           field's upper bit, which a mask would corrupt. *)
        Some
          (Word.sub addr (expected lsl t.hw.tag_shift)
          land (t.hw.mem_bytes - 1))

(* A load-use dependence costs one no-op cycle, as if the assembler had
   inserted a delay no-op (counted in the no-op instruction class). *)
let interlock_check t (insn : int Insn.t) =
  if t.pending_load >= 0 && List.mem t.pending_load (Insn.reads insn) then begin
    t.stats.Stats.cycles <- t.stats.Stats.cycles + 1;
    t.stats.Stats.interlocks <- t.stats.Stats.interlocks + 1;
    Stats.count_insn t.stats Insn.K_nop
  end;
  t.pending_load <- -1

(* Execute a non-control instruction (possibly sitting in a delay slot). *)
let exec_simple t (e : Image.entry) =
  let insn = e.Image.insn in
  interlock_check t insn;
  Stats.count_insn t.stats (Insn.klass insn);
  let charge c = Stats.charge t.stats e.Image.annot c in
  (match insn with
  | Insn.Alu (op, rd, rs, rt) ->
      let b = t.regs.(rt) in
      if (op = Insn.Div || op = Insn.Rem) && b = 0 then abort t err_div0
      else begin
        charge (alu_cycles op);
        set_reg t rd (alu_eval op t.regs.(rs) b)
      end
  | Insn.Alui (op, rd, rs, imm) ->
      if (op = Insn.Div || op = Insn.Rem) && imm = 0 then abort t err_div0
      else begin
        charge (alu_cycles op);
        set_reg t rd (alu_eval op t.regs.(rs) (Word.of_int imm))
      end
  | Insn.Li (rd, imm) ->
      charge (Word.imm_cycles imm);
      set_reg t rd imm
  | Insn.La (rd, addr) ->
      charge (Word.imm_cycles addr);
      set_reg t rd addr
  | Insn.Mv (rd, rs) ->
      charge 1;
      set_reg t rd t.regs.(rs)
  | Insn.Ld (mode, rd, rs, off) -> (
      charge 1;
      match effective t mode t.regs.(rs) off ~speculative:e.Image.speculative with
      | Some addr ->
          set_reg t rd (read_word t addr);
          t.pending_load <- rd
      | None -> abort t err_type)
  | Insn.St (mode, rs, rt, off) -> (
      charge 1;
      match effective t mode t.regs.(rs) off ~speculative:e.Image.speculative with
      | Some addr -> write_word t addr t.regs.(rt)
      | None -> abort t err_type)
  | Insn.Add_gen (rd, rs, rt) | Insn.Sub_gen (rd, rs, rt) -> (
      charge 1;
      let is_add = match insn with Insn.Add_gen _ -> true | _ -> false in
      let a = t.regs.(rs) and b = t.regs.(rt) in
      let result = if is_add then Word.add a b else Word.sub a b in
      let ok =
        t.hw.is_int_item a && t.hw.is_int_item b
        && not (t.hw.gen_overflowed a b result)
      in
      if ok then set_reg t rd result
      else if t.in_slot then
        errorf "generic-arithmetic trap in a delay slot at pc %d" t.pc
      else
        let handler = if is_add then t.gen_add_handler else t.gen_sub_handler in
        if handler < 0 then abort t err_type
        else begin
          (* Resumable trap: operands into tr0/tr1, destination recorded,
             return address into epc. *)
          t.stats.Stats.traps <- t.stats.Stats.traps + 1;
          t.stats.Stats.trap_cycles <-
            t.stats.Stats.trap_cycles + t.hw.trap_overhead;
          Stats.charge t.stats
            (Annot.make ~checking:e.Image.annot.Annot.checking Annot.Garith)
            t.hw.trap_overhead;
          t.regs.(Reg.tr0) <- a;
          t.regs.(Reg.tr1) <- b;
          t.trap_dest <- rd;
          t.regs.(Reg.epc) <- t.pc + 1;
          t.pc <- handler - 1
          (* -1: the main loop will advance pc by one. *)
        end)
  | Insn.Settd rs ->
      charge 1;
      set_reg t t.trap_dest t.regs.(rs)
  | Insn.Nop -> charge 1
  | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ | Insn.Jr _
  | Insn.Jalr _ | Insn.Rett | Insn.Trap _ | Insn.Halt ->
      errorf "control instruction in a delay slot at pc %d" t.pc);
  match insn with
  | Insn.Ld _ -> () (* pending_load already set *)
  | _ -> t.pending_load <- -1

let fetch t i =
  if i < 0 || i >= Array.length t.code then errorf "pc out of range: %d" i
  else t.code.(i)

(* Execute the instruction at [t.pc]; advances [t.pc]. *)
let step t =
  let e = fetch t t.pc in
  let insn = e.Image.insn in
  let charge c = Stats.charge t.stats e.Image.annot c in
  let exec_slots () =
    (* Slots run with pc conceptually past the branch; aborts inside a slot
       stop execution before the jump. *)
    let s1 = fetch t (t.pc + 1) and s2 = fetch t (t.pc + 2) in
    t.in_slot <- true;
    exec_simple t s1;
    if t.outcome = None then exec_simple t s2;
    t.in_slot <- false
  in
  let squash_slots () =
    t.stats.Stats.squashed <- t.stats.Stats.squashed + 2;
    t.stats.Stats.cycles <- t.stats.Stats.cycles + 2;
    let s = Stats.slot e.Image.annot in
    t.stats.Stats.kind_cycles.(s) <- t.stats.Stats.kind_cycles.(s) + 2
  in
  let branch_to ~taken ~squash target =
    interlock_check t insn;
    Stats.count_insn t.stats (Insn.klass insn);
    charge 1;
    if squash && not taken then squash_slots () else exec_slots ();
    if t.outcome = None then t.pc <- (if taken then target else t.pc + 3)
  in
  match insn with
  | Insn.B (b, target) ->
      let taken = cond_eval b.Insn.cond t.regs.(b.Insn.rs) t.regs.(b.Insn.rt) in
      branch_to ~taken ~squash:b.Insn.squash target
  | Insn.Bi (b, target) ->
      let taken =
        cond_eval b.Insn.bi_cond t.regs.(b.Insn.bi_rs)
          (Word.of_int b.Insn.bi_imm)
      in
      branch_to ~taken ~squash:b.Insn.bi_squash target
  | Insn.Btag (b, target) ->
      let tag = tag_of t t.regs.(b.Insn.bt_rs) in
      let taken = if b.Insn.bt_neg then tag <> b.Insn.bt_tag
                  else tag = b.Insn.bt_tag in
      branch_to ~taken ~squash:b.Insn.bt_squash target
  | Insn.J target -> branch_to ~taken:true ~squash:false target
  | Insn.Jal target ->
      set_reg t Reg.ra (t.pc + 3);
      branch_to ~taken:true ~squash:false target
  | Insn.Jr rs ->
      let target = t.regs.(rs) in
      branch_to ~taken:true ~squash:false target
  | Insn.Jalr rs ->
      let target = t.regs.(rs) in
      set_reg t Reg.ra (t.pc + 3);
      branch_to ~taken:true ~squash:false target
  | Insn.Rett ->
      interlock_check t insn;
      Stats.count_insn t.stats (Insn.klass insn);
      charge 1;
      t.pc <- t.regs.(Reg.epc)
  | Insn.Trap code ->
      interlock_check t insn;
      Stats.count_insn t.stats (Insn.klass insn);
      charge 1;
      abort t (err_user_base + code)
  | Insn.Halt ->
      Stats.count_insn t.stats (Insn.klass insn);
      charge 1;
      t.outcome <- Some (Halted t.regs.(Reg.v0))
  | Insn.Alu _ | Insn.Alui _ | Insn.Li _ | Insn.La _ | Insn.Mv _ | Insn.Ld _
  | Insn.St _ | Insn.Add_gen _ | Insn.Sub_gen _ | Insn.Settd _ | Insn.Nop ->
      exec_simple t e;
      t.pc <- t.pc + 1

exception Out_of_fuel

let run_reference t =
  let rec loop () =
    match t.outcome with
    | Some o -> o
    | None ->
        if t.fuel <= 0 then raise Out_of_fuel;
        t.fuel <- t.fuel - 1;
        step t;
        loop ()
  in
  loop ()

(* Process-wide trace-engine instrumentation.  The run loop accumulates
   locally and flushes once per [run] call (in a [Fun.protect] finally,
   so an [Out_of_fuel] or abort-path exception still reports), keeping
   atomics off the hot path. *)
type trace_totals = {
  tt_formed : int;
  tt_entries : int;
  tt_side_exits : int;
  tt_in_trace : int; (* instructions retired inside traces *)
  tt_retired : int; (* instructions retired by traced runs, total *)
  tt_form_s : float; (* wall time inside [Trace.form], summed over domains *)
  tt_form_words : int; (* minor-heap words allocated inside [Trace.form] *)
}

let tt_formed_a = Atomic.make 0
let tt_entries_a = Atomic.make 0
let tt_side_exits_a = Atomic.make 0
let tt_in_trace_a = Atomic.make 0
let tt_retired_a = Atomic.make 0
let tt_form_ns_a = Atomic.make 0
let tt_form_words_a = Atomic.make 0

let note_formation ~formed ~ns ~words =
  if formed then Atomic.incr tt_formed_a;
  ignore (Atomic.fetch_and_add tt_form_ns_a ns);
  ignore (Atomic.fetch_and_add tt_form_words_a words)

let trace_counters () =
  {
    tt_formed = Atomic.get tt_formed_a;
    tt_entries = Atomic.get tt_entries_a;
    tt_side_exits = Atomic.get tt_side_exits_a;
    tt_in_trace = Atomic.get tt_in_trace_a;
    tt_retired = Atomic.get tt_retired_a;
    tt_form_s = float_of_int (Atomic.get tt_form_ns_a) *. 1e-9;
    tt_form_words = Atomic.get tt_form_words_a;
  }

let reset_trace_counters () =
  Atomic.set tt_formed_a 0;
  Atomic.set tt_entries_a 0;
  Atomic.set tt_side_exits_a 0;
  Atomic.set tt_in_trace_a 0;
  Atomic.set tt_retired_a 0;
  Atomic.set tt_form_ns_a 0;
  Atomic.set tt_form_words_a 0

(* The traced hot loop: tier 1 is the fused block dispatch, with a
   per-leader heat/edge profile feeding trace formation and a trace
   lookup ahead of the block lookup so a formed trace captures its path.
   Tier 2 dispatches once per trace, chaining a loop trace directly to
   itself through [tr_next].  Blocks never chain block-to-block: that
   would skip the trace lookup at the successor, so tier 1 always
   returns to [goto].  Fuel is pre-paid at each granularity: a trace
   pre-pays [tr_steps] and falls back to block granularity when it
   cannot, a block pre-pays [b_steps] and falls back to the reference
   [step], so [Out_of_fuel] fires at the identical retirement count.
   [step] also runs the rare entries at a pc that leads no block: a
   [rett] into the middle of a straight line, or a branch whose delay
   slots fusion leaves to the reference (a block stops just before
   it). *)
let run_traced t ts =
  let blocks = t.blocks in
  let n = Array.length t.code in
  (* [Trace.attach] installs the blocks and the trace table together,
     both sized to the code; the unchecked reads below rely on it. *)
  assert (Array.length blocks = n && Array.length ts.ts_traces = n);
  let traces = ts.ts_traces and heat = ts.ts_heat in
  let succ1 = ts.ts_succ1
  and cnt1 = ts.ts_cnt1
  and succ2 = ts.ts_succ2
  and cnt2 = ts.ts_cnt2 in
  let threshold = ts.ts_threshold in
  let entries = ref 0 and side_exits = ref 0 and in_trace = ref 0 in
  let fuel0 = t.fuel in
  (* Two-entry successor profile with decay: a slot is free when its
     count has decayed to zero, so a shifting dominant successor (think
     an indirect jump) can eventually displace a stale one. *)
  let record_edge from next =
    if heat.(from) >= 0 then
      if succ1.(from) = next then cnt1.(from) <- cnt1.(from) + 1
      else if succ2.(from) = next then cnt2.(from) <- cnt2.(from) + 1
      else if cnt1.(from) = 0 then begin
        succ1.(from) <- next;
        cnt1.(from) <- 1
      end
      else if cnt2.(from) = 0 then begin
        succ2.(from) <- next;
        cnt2.(from) <- 1
      end
      else begin
        cnt1.(from) <- cnt1.(from) - 1;
        cnt2.(from) <- cnt2.(from) - 1
      end
  in
  let rec dispatch () =
    match t.outcome with
    | Some o -> o
    | None ->
        let pc = t.pc in
        if pc < 0 || pc >= n then errorf "pc out of range: %d" pc;
        goto pc
  and goto pc =
    (* [pc] is in range: callers bounds-check before chaining here. *)
    match Array.unsafe_get traces pc with
    | Some tr -> enter_trace tr
    | None -> (
        match Array.unsafe_get blocks pc with
        | Some b -> enter_block b
        | None ->
            t.pc <- pc;
            step_one ())
  and enter_trace tr =
    if t.fuel >= tr.tr_steps then begin
      incr entries;
      let f0 = t.fuel in
      t.fuel <- f0 - tr.tr_steps;
      let pc = tr.tr_exec t in
      in_trace := !in_trace + (f0 - t.fuel);
      if pc >= 0 then
        if pc = tr.tr_exit then
          match tr.tr_next with
          | Some nt when nt.tr_pc = pc -> enter_trace nt
          | _ -> (
              match if pc < n then Array.unsafe_get traces pc else None with
              | Some nt ->
                  tr.tr_next <- Some nt;
                  enter_trace nt
              | None ->
                  if pc >= n then errorf "pc out of range: %d" pc;
                  goto pc)
        else begin
          incr side_exits;
          if pc >= n then errorf "pc out of range: %d" pc;
          goto pc
        end
      else
        match t.outcome with
        | Some o -> o
        | None -> errorf "trace stopped without an outcome"
    end
    else begin
      (* Fuel tail: re-run the head at block granularity (which in turn
         falls back to single instructions), for the identical
         [Out_of_fuel] retirement count. *)
      t.pc <- tr.tr_pc;
      match blocks.(tr.tr_pc) with
      | Some b -> exec_block b
      | None -> step_one ()
    end
  and enter_block b =
    let bpc = b.b_pc in
    let h = heat.(bpc) in
    if h >= 0 then
      if h + 1 >= threshold then begin
        heat.(bpc) <- min_int;
        ts.ts_form t bpc;
        (* formation may have installed a trace at this leader *)
        match traces.(bpc) with
        | Some tr -> enter_trace tr
        | None -> exec_block b
      end
      else begin
        heat.(bpc) <- h + 1;
        exec_block b
      end
    else exec_block b
  and exec_block b =
    if t.fuel >= b.b_steps then begin
      t.fuel <- t.fuel - b.b_steps;
      let pc = b.b_exec t in
      if pc >= 0 then begin
        record_edge b.b_pc pc;
        if pc >= n then errorf "pc out of range: %d" pc;
        goto pc
      end
      else
        match t.outcome with
        | Some o -> o
        | None -> errorf "fused block stopped without an outcome"
    end
    else begin
      t.pc <- b.b_pc;
      step_one ()
    end
  and step_one () =
    (* [t.pc] is current: every caller sets it first. *)
    if t.fuel <= 0 then raise Out_of_fuel;
    t.fuel <- t.fuel - 1;
    step t;
    dispatch ()
  in
  Fun.protect
    ~finally:(fun () ->
      if !entries > 0 then begin
        ignore (Atomic.fetch_and_add tt_entries_a !entries);
        ignore (Atomic.fetch_and_add tt_side_exits_a !side_exits);
        ignore (Atomic.fetch_and_add tt_in_trace_a !in_trace)
      end;
      ignore (Atomic.fetch_and_add tt_retired_a (fuel0 - t.fuel)))
    dispatch

let run t =
  match t.tstate with
  | None -> run_reference t
  | Some ts -> run_traced t ts
