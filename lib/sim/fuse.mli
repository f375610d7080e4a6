(** Basic-block fusion, tier 1 of the traced engine: straight-line runs
    of instructions are fused into single block closures with all
    statically-knowable statistics (instruction and class counts,
    per-slot cycle charges, in-block load-use interlocks) pre-summed
    into one delta applied on block entry.  The traced run loop
    dispatches once per block instead of once per instruction.
    Produces bit-identical {!Stats.t} to the reference interpreter —
    including on dynamic early exits (division by zero, checked-load
    type traps, generic-arithmetic traps), which undo the pre-summed
    statistics and refund the pre-paid fuel of the unexecuted block
    suffix (enforced by the engine differential suite).  A branch whose
    delay slots cannot be fused (a slot holds a control or
    generic-arithmetic instruction, or lies past the end of code) ends
    the block before it and is stepped by the reference
    [Machine.step].

    The building blocks of fusion — the static statistics builder,
    flattened deltas, and the one continuation-chain compiler for simple
    instructions and branch conditions — are exposed below for {!Trace},
    which reuses them to compile multi-block superblocks; they are not
    meant for use outside [lib/sim]. *)

module Image := Tagsim_asm.Image
module Insn := Tagsim_mipsx.Insn

(** Build and install the block array on the machine; idempotent.
    Index [i] is [Some] iff [i] is a block leader — the entry point, a
    code label, a branch or jump target, the fall-through after a
    control instruction and its two delay slots, or the resumption point
    after a generic-arithmetic instruction — that is not itself a branch
    with unfusible delay slots.  Called by {!Trace.attach}. *)
val attach : Machine.t -> unit

(** {1 Fusion building blocks (shared with {!Trace})} *)

(** A fused continuation returns the successor pc, or {!stopped} (any
    negative value) once the outcome is decided. *)
type chain_fn = Machine.t -> int

val stopped : int

(** {2 The static statistics builder}

    A compiler sweeps the units of a block or trace right to left
    through one dense running accumulator; entry, guard and undo deltas
    are sparse snapshots of it. *)

(** One unit's static statistics (an instruction's count, success-path
    cycle charge and load-use interlock, or the annulled slot pair of a
    squashing branch), packed into an immediate int. *)
type ustat = private int

(** The statically-knowable statistics of one instruction: count, the
    unconditional success-path cycle charge (control instructions issue
    in one cycle), and the load-use interlock against the given
    predecessor. *)
val contribution : Image.entry option -> Image.entry -> ustat

(** The squashed-slot accounting of an annulling branch (two cycles,
    charged to the branch's annotation slot), statically applied when a
    trace's expected path falls through a squashing branch. *)
val squash_stat : int -> ustat

(** Dense statistics accumulator: totals, then one counter per kind
    slot and per instruction class, laid out like {!Stats.t}. *)
type acc = {
  mutable a_cycles : int;
  mutable a_insns : int;
  mutable a_interlocks : int;
  mutable a_squashed : int;
  a_kind : int array;
  a_klass : int array;
}

val acc_create : unit -> acc
val acc_clear : acc -> unit
val acc_add : acc -> ustat -> unit

(** A pre-summed statistics delta, flattened for single-sweep
    application: the four totals, the index just past the kind-slot
    pairs, then (slot, amount) pairs in ascending slot order, kind
    slots first and classes after. *)
type delta = int array

(** The sparse snapshot of an accumulator. *)
val compress : acc -> delta

(** A shape-specialised applier for one delta (falls back to the
    generic sweep for large or squash-carrying deltas). *)
val apply_fn : delta -> Stats.t -> unit

val delta_undo : Stats.t -> delta -> unit

(** The dynamic block/trace-entry interlock charge (the one probe fusion
    cannot remove: the previous block may end in a load). *)
val interlock_stats : Machine.t -> unit

(** Registers read by an instruction as a pre-resolved pair (at most
    two; -1 = none). *)
val read_regs : int Insn.t -> int * int

(** The register left with an in-flight load by an instruction at a
    block exit (-1 for anything but a load). *)
val exit_pl_of : int Insn.t -> int

val squash_of : Image.entry -> bool

(** Compile one simple (non-control, possibly trapping) instruction
    into a closure doing only the genuinely dynamic work, tail-calling
    [next] on the success path; the one such compiler for both tiers.
    [suffix] holds the statistics pre-summed for every unit after this
    one; an instruction that can exit early snapshots its undo delta
    from it during the call (a division adds back its own success-path
    charge).  On a dynamic exit the closure undoes that delta, refunds
    [refund] pre-paid fuel, and does not call [next]. *)
val compile_op :
  Machine.hw ->
  Image.entry ->
  pc:int ->
  suffix:acc ->
  refund:int ->
  next:chain_fn ->
  chain_fn

(** A conditional branch's condition ([B], [Bi] or [Btag]) as a test
    with the comparison inlined: the one branch-condition compiler for
    block terminators and trace guards. *)
val cond_test : Machine.hw -> Image.entry -> Machine.t -> bool

(** The static layout of the block led by an address (shared with the
    trace compiler, which walks shapes along the hot path).  A block
    without a terminator either falls off the end of code or stops just
    before a branch whose delay slots cannot be fused; [sh_slots] holds
    the two fused delay slots of a branch or jump terminator. *)
type shape = {
  sh_stop : int; (* the terminator, or the first address past the block *)
  sh_term : Image.entry option; (* None: the block ends at [sh_stop] *)
  sh_slots : (Image.entry * Image.entry) option;
  sh_squash : bool;
}

val shape : Machine.t -> int -> shape
