(** The building blocks of the traced engine's one compiler, exposed
    for {!Trace}, which uses them to compile superblocks; they are not
    meant for use outside [lib/sim].  The static control-flow graph
    ({!leaders}, {!shape}), the static statistics builder with its
    flattened deltas, and the continuation-chain compiler for simple
    instructions ({!compile_op}) and branch conditions ({!cond_test}).
    Compiled code produces bit-identical {!Stats.t} to the reference
    interpreter, including on dynamic early exits (division by zero,
    checked-load type traps, generic-arithmetic traps, memory faults),
    which uncount the pre-summed statistics and refund the pre-paid fuel
    of the unexecuted suffix (enforced by the engine differential
    suite). *)

module Image := Tagsim_asm.Image
module Insn := Tagsim_mipsx.Insn

(** {1 Static control flow} *)

(** The basic-block leaders of the machine's code, by pc: the entry
    point, a code label, a branch or jump target, the fall-through after
    a control instruction and its two delay slots, or the resumption
    point after a generic-arithmetic instruction.  {!Trace.attach}
    stores the bitmap in the trace-engine state. *)
val leaders : Machine.t -> bool array

(** The static layout of the basic block led by an address (the trace
    compiler walks shapes along the hot path).  A block without a
    terminator either falls off the end of code or stops just before a
    branch whose delay slots cannot be compiled; [sh_slots] holds the
    two delay slots of a branch or jump terminator. *)
type shape = {
  sh_stop : int; (* the terminator, or the first address past the block *)
  sh_term : Image.entry option; (* None: the block ends at [sh_stop] *)
  sh_slots : (Image.entry * Image.entry) option;
  sh_squash : bool;
}

val shape : Machine.t -> int -> shape

(** {1 Compiled continuations} *)

(** A compiled continuation returns the successor pc, or {!stopped} (any
    negative value) once the outcome is decided. *)
type chain_fn = Machine.t -> int

val stopped : int

(** {2 The static statistics builder}

    The trace compiler sweeps the units of a trace right to left
    through one dense running accumulator; entry, guard and undo deltas
    are sparse snapshots of it, counted by id at run time and folded
    into {!Stats.t} by [Machine.run]. *)

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

(** The dynamic trace-entry interlock (the one probe compilation cannot
    remove: whatever ran before the trace may end in a load). *)
val interlock_stat : ustat

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

(** The sparse snapshot of an accumulator, in {!Machine.delta}'s
    layout. *)
val compress : acc -> Machine.delta

(** [count id n] adds [n] (+1 applied, -1 undone) to delta [id]'s
    count in the running machine; registration has sized [counts]. *)
val count : int -> int -> Machine.t -> unit

(** Registers read by an instruction as a pre-resolved pair (at most
    two; -1 = none). *)
val read_regs : int Insn.t -> int * int

(** The register left with an in-flight load by an instruction at a
    trace exit (-1 for anything but a load). *)
val exit_pl_of : int Insn.t -> int

(** Compile one simple (non-control, possibly trapping) instruction
    into a closure doing only the genuinely dynamic work, tail-calling
    [next] on the success path; the engine's one such compiler.
    [suffix] holds the statistics pre-summed for every unit after this
    one; an instruction that can exit early snapshots its undo delta
    from it during the call (a division adds back its own success-path
    charge) and [snap] registers the snapshot under a delta id.  On a
    dynamic exit the closure uncounts that id, refunds [refund]
    pre-paid fuel, and does not call [next]; a load or store that raises
    [Machine.Machine_error] does the same before raising. *)
val compile_op :
  Machine.hw ->
  Image.entry ->
  pc:int ->
  suffix:acc ->
  snap:(acc -> int) ->
  refund:int ->
  next:chain_fn ->
  chain_fn

(** A conditional branch's condition ([B], [Bi] or [Btag]) as a test
    with the comparison inlined, for trace guards. *)
val cond_test : Machine.hw -> Image.entry -> Machine.t -> bool
