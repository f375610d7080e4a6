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
module Metrics = Tagsim_metrics.Metrics

exception Machine_error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

(** Execution engine selector.  [`Reference] re-decodes every retired
    instruction (the original interpreter, kept as the semantic
    oracle); [`Traced] steps cold code on the same interpreter under a
    per-leader heat and edge profile and promotes hot paths into
    superblock traces compiled by {!Trace} (attached with
    {!Trace.attach}), dispatching once per trace.  Both engines must
    produce bit-identical statistics.  {!run} picks the loop from the attached
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
      (* scratch for traced register-indirect jumps: the target is read
         before the delay slots run (they may clobber the register) and
         consumed by the slot chain's final pc update *)
  mutable trap_dest : int; (* destination register of a trapped insn *)
  mutable gen_add_handler : int; (* code address, -1 = none *)
  mutable gen_sub_handler : int;
  mutable stack_limit : int;
      (* lowest legal sp: an instruction that would write a smaller
         value to sp aborts with [err_stack] (0 = no limit) *)
  stats : Stats.t;
  mutable outcome : outcome option;
  mutable fuel : int;
  mutable in_slot : bool; (* executing a delay-slot instruction *)
  mutable tstate : tstate option;
      (* trace-engine state (heat/edge profile and formed traces),
         installed by Trace.attach; None until then, and [run] stays on
         the reference interpreter *)
  mutable counts : int array;
      (* per delta id: its count in the current [run], folded into
         [stats] and zeroed when [run] returns *)
}

(* Trace-engine state, one per attached code image (shareable between
   machines running the same image).  [ts_leader] marks the basic-block
   leaders ({!Fuse.leaders}), the only pcs that are profiled and can
   head a trace or a trace segment.  [ts_heat] counts entries per leader
   while non-negative; crossing [ts_threshold] saturates the counter to
   [min_int] and calls [ts_form], which either
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
   which still reads it.  [ts_deltas] holds the delta of each id the
   traces count (the first [ts_ndeltas] slots, used under [ts_lock]). *)
and tstate = {
  ts_leader : bool array;
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
  mutable ts_deltas : delta array;
  mutable ts_ndeltas : int;
  ts_lock : Mutex.t;
}

(* A compiled superblock trace: [tr_exec] retires the whole expected
   path ([tr_steps] top-level retirements, pre-paid by the run loop) in
   one call and returns the next pc — [tr_exit] when the expected path
   ran to the end, some other pc after a guarded side exit (which has
   already rolled statistics and fuel back to the exact values of the
   instructions that ran), or a negative value once the outcome is
   decided.  [tr_next] memoises the trace at [tr_exit] for direct trace
   chaining (a loop trace chains to itself); the memo is validated
   against the immutable [tr_pc], so a stale or torn read can only miss,
   never run the wrong trace.  [tr_ids] bounds the delta ids it counts. *)
and trace = {
  tr_pc : int; (* leader address of the trace head *)
  tr_steps : int;
  tr_exit : int; (* successor pc of the expected path *)
  tr_exec : t -> int;
  tr_ids : int;
  mutable tr_next : trace option;
}

(* A pre-summed statistics delta: [0..3] hold the cycle, instruction,
   interlock and squashed-slot totals, [4] the index just past the
   kind-counter pairs, and the rest are sparse (index, amount) pairs,
   kind-cycle pairs first, class-count pairs after. *)
and delta = int array

(* Error codes used by [Aborted]. *)
let err_type = 1
let err_bounds = 2
let err_mem = 3
let err_div0 = 4
let err_stack = 5
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
    stack_limit = 0;
    stats = Stats.create ();
    outcome = None;
    fuel;
    in_slot = false;
    tstate = None;
    counts = [||];
  }

let set_gen_handlers t ~add ~sub =
  t.gen_add_handler <- add;
  t.gen_sub_handler <- sub

let set_stack_limit t limit = t.stack_limit <- limit

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

(* Effective data address for a memory access, or -1 for a type trap
   (addresses are words, hence non-negative). *)
let effective t (mode : Insn.mem_mode) base off ~speculative =
  let addr = Word.add base (Word.of_int off) in
  match mode with
  | Insn.Plain ->
      if addr >= t.hw.mem_bytes then
        if speculative then addr land (t.hw.mem_bytes - 1)
        else errorf "unmasked address 0x%08x at pc %d" addr t.pc
      else addr
  | Insn.Tag_ignoring -> addr land t.hw.addr_mask
  | Insn.Checked expected ->
      if tag_of t base <> expected then -1 (* type trap *)
      else
        (* The verified tag is subtracted (not masked) out of the address:
           with low-order tags an index may have carried into the tag
           field's upper bit, which a mask would corrupt. *)
        Word.sub addr (expected lsl t.hw.tag_shift) land (t.hw.mem_bytes - 1)

(* A load-use dependence costs one no-op cycle, as if the assembler had
   inserted a delay no-op (counted in the no-op instruction class). *)
let interlock_check t (insn : int Insn.t) =
  if t.pending_load >= 0 && Insn.reads_reg insn t.pending_load then begin
    t.stats.Stats.cycles <- t.stats.Stats.cycles + 1;
    t.stats.Stats.interlocks <- t.stats.Stats.interlocks + 1;
    Stats.count_insn t.stats Insn.K_nop
  end;
  t.pending_load <- -1

let charge t (e : Image.entry) c = Stats.charge t.stats e.Image.annot c

(* Write the computed value [v] to [rd] at a charge of [c] cycles,
   unless it would move sp below the stack limit: that aborts before the
   charge, as a division by zero does, so a stack overflow costs no
   simulated cycles.  A constant ([Li], [La]) is not checked: start-up
   points sp at a data label before it loads the stack top. *)
let set_dest t e rd v c =
  if rd = Reg.sp && Word.of_int v < t.stack_limit then abort t err_stack
  else begin
    charge t e c;
    set_reg t rd v
  end

(* Execute a non-control instruction (possibly sitting in a delay slot). *)
let exec_simple t (e : Image.entry) =
  let insn = e.Image.insn in
  interlock_check t insn;
  Stats.count_insn t.stats (Insn.klass insn);
  (match insn with
  | Insn.Alu (op, rd, rs, rt) ->
      let b = t.regs.(rt) in
      if (op = Insn.Div || op = Insn.Rem) && b = 0 then abort t err_div0
      else set_dest t e rd (alu_eval op t.regs.(rs) b) (alu_cycles op)
  | Insn.Alui (op, rd, rs, imm) ->
      if (op = Insn.Div || op = Insn.Rem) && imm = 0 then abort t err_div0
      else
        set_dest t e rd
          (alu_eval op t.regs.(rs) (Word.of_int imm))
          (alu_cycles op)
  | Insn.Li (rd, imm) ->
      charge t e (Word.imm_cycles imm);
      set_reg t rd imm
  | Insn.La (rd, addr) ->
      charge t e (Word.imm_cycles addr);
      set_reg t rd addr
  | Insn.Mv (rd, rs) -> set_dest t e rd t.regs.(rs) 1
  | Insn.Ld (mode, rd, rs, off) ->
      charge t e 1;
      let addr =
        effective t mode t.regs.(rs) off ~speculative:e.Image.speculative
      in
      if addr < 0 then abort t err_type
      else
        (* The load's issue stands, as for its type trap. *)
        let v = read_word t addr in
        if rd = Reg.sp && v < t.stack_limit then abort t err_stack
        else begin
          set_reg t rd v;
          t.pending_load <- rd
        end
  | Insn.St (mode, rs, rt, off) ->
      charge t e 1;
      let addr =
        effective t mode t.regs.(rs) off ~speculative:e.Image.speculative
      in
      if addr < 0 then abort t err_type else write_word t addr t.regs.(rt)
  | Insn.Add_gen (rd, rs, rt) | Insn.Sub_gen (rd, rs, rt) -> (
      charge t e 1;
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
      charge t e 1;
      set_reg t t.trap_dest t.regs.(rs)
  | Insn.Nop -> charge t e 1
  | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ | Insn.Jr _
  | Insn.Jalr _ | Insn.Rett | Insn.Trap _ | Insn.Halt ->
      errorf "control instruction in a delay slot at pc %d" t.pc);
  match insn with
  | Insn.Ld _ -> () (* pending_load already set *)
  | _ -> t.pending_load <- -1

let fetch t i =
  if i < 0 || i >= Array.length t.code then errorf "pc out of range: %d" i
  else t.code.(i)

(* The helpers of [step], at top level so that a step allocates no
   closures: it runs all cold code of the traced engine. *)

(* Slots run with pc conceptually past the branch; aborts inside a slot
   stop execution before the jump. *)
let exec_slots t =
  let s1 = fetch t (t.pc + 1) and s2 = fetch t (t.pc + 2) in
  t.in_slot <- true;
  exec_simple t s1;
  (match t.outcome with None -> exec_simple t s2 | Some _ -> ());
  t.in_slot <- false

let squash_slots t (e : Image.entry) =
  t.stats.Stats.squashed <- t.stats.Stats.squashed + 2;
  t.stats.Stats.cycles <- t.stats.Stats.cycles + 2;
  let s = Stats.slot e.Image.annot in
  t.stats.Stats.kind_cycles.(s) <- t.stats.Stats.kind_cycles.(s) + 2

(* Retire the control instruction [e] at [t.pc]: its issue, then its
   slots (or their annulment), then the jump. *)
let branch_to t (e : Image.entry) ~taken ~squash target =
  let insn = e.Image.insn in
  interlock_check t insn;
  Stats.count_insn t.stats (Insn.klass insn);
  charge t e 1;
  if squash && not taken then squash_slots t e else exec_slots t;
  match t.outcome with
  | None -> t.pc <- (if taken then target else t.pc + 3)
  | Some _ -> ()

(* Execute the instruction at [t.pc]; advances [t.pc]. *)
let step t =
  let e = fetch t t.pc in
  let insn = e.Image.insn in
  match insn with
  | Insn.B (b, target) ->
      let taken = cond_eval b.Insn.cond t.regs.(b.Insn.rs) t.regs.(b.Insn.rt) in
      branch_to t e ~taken ~squash:b.Insn.squash target
  | Insn.Bi (b, target) ->
      let taken =
        cond_eval b.Insn.bi_cond t.regs.(b.Insn.bi_rs)
          (Word.of_int b.Insn.bi_imm)
      in
      branch_to t e ~taken ~squash:b.Insn.bi_squash target
  | Insn.Btag (b, target) ->
      let tag = tag_of t t.regs.(b.Insn.bt_rs) in
      let taken = if b.Insn.bt_neg then tag <> b.Insn.bt_tag
                  else tag = b.Insn.bt_tag in
      branch_to t e ~taken ~squash:b.Insn.bt_squash target
  | Insn.J target -> branch_to t e ~taken:true ~squash:false target
  | Insn.Jal target ->
      set_reg t Reg.ra (t.pc + 3);
      branch_to t e ~taken:true ~squash:false target
  | Insn.Jr rs ->
      let target = t.regs.(rs) in
      branch_to t e ~taken:true ~squash:false target
  | Insn.Jalr rs ->
      let target = t.regs.(rs) in
      set_reg t Reg.ra (t.pc + 3);
      branch_to t e ~taken:true ~squash:false target
  | Insn.Rett ->
      interlock_check t insn;
      Stats.count_insn t.stats (Insn.klass insn);
      charge t e 1;
      t.pc <- t.regs.(Reg.epc)
  | Insn.Trap code ->
      interlock_check t insn;
      Stats.count_insn t.stats (Insn.klass insn);
      charge t e 1;
      abort t (err_user_base + code)
  | Insn.Halt ->
      Stats.count_insn t.stats (Insn.klass insn);
      charge t e 1;
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

(* The trace counters (see machine.mli).  The run loop counts in locals
   and flushes once per [run], in its [finally]. *)
type trace_totals = {
  tt_formed : int;
  tt_entries : int;
  tt_side_exits : int;
  tt_in_trace : int;
  tt_retired : int;
  tt_insns : int;
  tt_form_s : float;
  tt_form_words : int;
}

let tc_entries = Metrics.counter "trace.entered"
let tc_side_exits = Metrics.counter "trace.side_exits"
let tc_in_trace = Metrics.counter "trace.in_trace"
let tc_retired = Metrics.counter "trace.retired"
let tc_insns = Metrics.counter "trace.insns"

let trace_counters () =
  let n name = Metrics.get (Metrics.counter name) in
  {
    tt_formed = n "trace.formed";
    tt_entries = n "trace.entered";
    tt_side_exits = n "trace.side_exits";
    tt_in_trace = n "trace.in_trace";
    tt_retired = n "trace.retired";
    tt_insns = n "trace.insns";
    tt_form_s = Metrics.seconds (Metrics.counter "trace.form_s");
    tt_form_words = n "trace.form_words";
  }

(* --- Counted deltas.  Sums commute, so a trace does not add its
   deltas into [stats] as it runs: its closures count them (+1 applied,
   -1 undone) in [t.counts], and [run] folds [count * delta] into
   [stats] once, when it returns. --- *)

let fold_delta (s : Stats.t) (d : delta) n =
  s.Stats.cycles <- s.Stats.cycles + (n * d.(0));
  s.Stats.insns <- s.Stats.insns + (n * d.(1));
  s.Stats.interlocks <- s.Stats.interlocks + (n * d.(2));
  s.Stats.squashed <- s.Stats.squashed + (n * d.(3));
  let rec pairs i =
    if i < Array.length d then begin
      let a = if i < d.(4) then s.Stats.kind_cycles else s.Stats.klass_insns in
      a.(d.(i)) <- a.(d.(i)) + (n * d.(i + 1));
      pairs (i + 2)
    end
  in
  pairs 5

(* Machines in several domains may share a trace state while they form
   traces, hence the lock. *)
let register_delta ts (d : delta) =
  Mutex.protect ts.ts_lock (fun () ->
      let id = ts.ts_ndeltas in
      if id = Array.length ts.ts_deltas then begin
        let grown = Array.make (max 64 (2 * id)) [||] in
        Array.blit ts.ts_deltas 0 grown 0 id;
        ts.ts_deltas <- grown
      end;
      ts.ts_deltas.(id) <- d;
      ts.ts_ndeltas <- id + 1;
      id)

let grow_counts t ids =
  let counts = Array.make (max ids (2 * Array.length t.counts)) 0 in
  Array.blit t.counts 0 counts 0 (Array.length t.counts);
  t.counts <- counts

(* A non-zero count belongs to a trace that ran, so its delta was
   registered before the trace was installed. *)
let fold_counts t ts =
  Mutex.protect ts.ts_lock (fun () ->
      Array.iteri
        (fun id n ->
          if n <> 0 then begin
            fold_delta t.stats ts.ts_deltas.(id) n;
            t.counts.(id) <- 0
          end)
        t.counts)

(* The traced loop, in two tiers.  At every dispatch point — the start
   of a run, a trace exit, and the end of a straight-line run — a formed
   trace at the pc is entered.  Anything else runs on the reference
   [step].  From a leader, the loop first counts the leader's heat, then
   steps until the pc leaves the straight line (a control transfer, or a
   generic-arithmetic trap into its handler) and records the edge from
   that leader to where the run went: the profile that trace formation
   reads.  A run crosses intermediate leaders without dispatching, so a
   leader is counted when control reaches it by a transfer.  A leader
   crossing the threshold forms a trace, entered at once when formation
   installs one.  A pc that leads nothing (a [rett] into the middle of a
   straight line) is stepped one instruction at a time.  A trace
   dispatches once per expected path, chaining through [tr_next] to the
   trace at its exit (a loop trace chains to itself).  It pre-pays its
   [tr_steps] fuel; when the fuel left cannot cover that, its head is
   stepped instead, so [Out_of_fuel] fires at the identical retirement
   count.  However the run ends, its [finally] folds the counts. *)
let run_traced t ts =
  let n = Array.length t.code in
  (* [Trace.attach] sizes the trace state to the code; the unchecked
     reads below rely on it. *)
  assert (Array.length ts.ts_traces = n && Array.length ts.ts_leader = n);
  let traces = ts.ts_traces and leader = ts.ts_leader and heat = ts.ts_heat in
  let succ1 = ts.ts_succ1
  and cnt1 = ts.ts_cnt1
  and succ2 = ts.ts_succ2
  and cnt2 = ts.ts_cnt2 in
  let threshold = ts.ts_threshold in
  let entries = ref 0 and side_exits = ref 0 and in_trace = ref 0 in
  let fuel0 = t.fuel and insns0 = t.stats.Stats.insns in
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
    | None ->
        t.pc <- pc;
        if Array.unsafe_get leader pc then enter_leader pc else step_one ()
  and enter_trace tr =
    if t.fuel >= tr.tr_steps then begin
      if tr.tr_ids > Array.length t.counts then grow_counts t tr.tr_ids;
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
      t.pc <- tr.tr_pc;
      step_one ()
    end
  and enter_leader l =
    let h = heat.(l) in
    if h >= 0 then
      if h + 1 >= threshold then begin
        heat.(l) <- min_int;
        ts.ts_form t l;
        (* formation may have installed a trace at this leader *)
        match traces.(l) with
        | Some tr -> enter_trace tr
        | None -> line l l
      end
      else begin
        heat.(l) <- h + 1;
        line l l
      end
    else line l l
  and line l pc =
    (* [t.pc = pc]: step the straight line that leader [l] began. *)
    if t.fuel <= 0 then raise Out_of_fuel;
    t.fuel <- t.fuel - 1;
    step t;
    match t.outcome with
    | Some o -> o
    | None ->
        let next = t.pc in
        if next = pc + 1 then line l next
        else begin
          record_edge l next;
          dispatch ()
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
      fold_counts t ts;
      Metrics.add tc_entries !entries;
      Metrics.add tc_side_exits !side_exits;
      Metrics.add tc_in_trace !in_trace;
      Metrics.add tc_retired (fuel0 - t.fuel);
      Metrics.add tc_insns (t.stats.Stats.insns - insns0))
    dispatch

let run t =
  match t.tstate with
  | None -> run_reference t
  | Some ts -> run_traced t ts
