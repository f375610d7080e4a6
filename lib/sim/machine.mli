(** The instruction-level simulator.  Cost model: one cycle per
    instruction, with the deviations documented in the implementation
    header (wide immediates, multiply/divide, load-use interlocks,
    squashed slots, trap overhead) — all of them visible to the paper's
    cycle accounting.

    Two execution engines share this state, and {!run} picks one from
    what is attached to the machine:
    - [`Reference]: the original interpreter, re-decoding every retired
      instruction ({!step} in a loop) — the semantic oracle, and what
      {!run} does on a machine without trace-engine state;
    - [`Traced]: once {!Trace.attach} has installed the trace-engine
      state, {!run} has two tiers.  Cold code runs on {!step}, under a
      per-leader entry-heat and edge profile; hot paths are promoted to
      superblock traces — one straight-line closure per expected path,
      with a single pre-summed statistics delta and guarded side exits
      that roll back to exact accounting (counted, and folded into
      {!Stats.t} when {!run} returns).  A trace whose pre-paid fuel
      does not fit the fuel left falls back to {!step}.
    Both engines must produce bit-identical {!Stats.t} (enforced by the
    differential engine suite and the fuzzer). *)

module Insn := Tagsim_mipsx.Insn
module Image := Tagsim_asm.Image

exception Machine_error of string

(** Hardware configuration: tag geometry and the semantics of the
    tag-aware instructions.  Supplied by the tag scheme in use
    (see {!Tagsim_tags.Scheme.machine_hw}). *)
type hw = {
  mem_bytes : int; (* power of two *)
  tag_shift : int;
  tag_width : int;
  addr_mask : int; (* applied by tag-ignoring and checked memory ops *)
  is_int_item : int -> bool; (* hardware integer test, for Add_gen *)
  gen_overflowed : int -> int -> int -> bool;
  trap_overhead : int;
}

type outcome = Halted of int | Aborted of int

(** Engine names (see the module header): what the CLI, the
    measurement keys and the fuzzer select.  {!run} itself dispatches on
    the attached state. *)
type engine = [ `Reference | `Traced ]

(** {1 Engine registry}

    The canonical engine names, for CLI parsing and reporting. *)

val engine_name : engine -> string

(** Both engines, the reference first. *)
val engine_all : engine list

(** Inverse of {!engine_name}; [None] for an unknown name. *)
val engine_by_name : string -> engine option

(** The machine state.  The record is exposed so that {!Fuse} and
    {!Trace} can compile closures that operate on it directly; treat it
    as read-only outside [lib/sim] and use the accessors below. *)
type t = {
  hw : hw;
  code : Image.entry array;
  code_entries : int array; (* addresses of all code labels *)
  mutable mem : int array;
      (* the materialised prefix of word memory: words past its end read
         as 0, and only {!write_word} grows it — access memory through
         {!read_word}/{!write_word}, never through this array *)
  mem_words : int; (* addressable size in words: [hw.mem_bytes / 4] *)
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
  mutable stack_limit : int; (* lowest legal sp; 0 = no limit *)
  stats : Stats.t;
  mutable outcome : outcome option;
  mutable fuel : int;
  mutable in_slot : bool; (* executing a delay-slot instruction *)
  mutable tstate : tstate option;
      (* installed by Trace.attach; [None] runs the reference loop *)
  mutable counts : int array;
      (* per delta id: its count in the current {!run}, folded into
         [stats] and zeroed when it returns *)
}

(** Trace-engine state (built by {!Trace.attach}): the basic-block
    leader bitmap, per-leader entry heat, a two-entry successor profile
    with decay, and the formed traces.  [ts_heat] saturates to
    [min_int] when a leader crosses [ts_threshold] and [ts_form] runs
    (installing a trace or, when more profile is needed, resetting the
    counter to retry).  Shareable
    between machines running the same image; racy profile updates only
    delay or repeat formation, never corrupt execution.  [ts_plans]
    mirrors [ts_traces] as pure data (one {!Plan.trace} per formed
    trace, newest first).  [ts_dirty] is never set: it stays only for
    tagbench/, which still reads it.  [ts_deltas] holds the delta of
    each id the traces count (the first [ts_ndeltas] slots, used under
    [ts_lock]); the counts belong to each machine. *)
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

(** A compiled superblock trace (built by {!Trace}): [tr_exec] retires
    the whole expected path — [tr_steps] pre-paid top-level
    retirements — in one call and returns the next pc: [tr_exit] when
    the expected path completed, another pc after a guarded side exit
    (statistics and fuel already rolled back to the exact values of
    what ran), or a negative value once the outcome is decided.
    [tr_next] memoises the trace at [tr_exit] for direct chaining (a
    loop trace chains to itself), validated against the immutable
    [tr_pc], so a stale or torn read can only miss.  [tr_exec] counts
    delta ids below [tr_ids]; the run loop sizes [counts] to fit. *)
and trace = {
  tr_pc : int; (* leader address of the trace head *)
  tr_steps : int;
  tr_exit : int; (* successor pc of the expected path *)
  tr_exec : t -> int;
  tr_ids : int;
  mutable tr_next : trace option;
}

(** A pre-summed statistics delta: the cycle, instruction, interlock
    and squashed-slot totals, the index just past the kind-slot pairs,
    then (slot, amount) pairs, kind slots first and classes after. *)
and delta = int array

(** {1 Abort codes} *)

val err_type : int
val err_bounds : int
val err_mem : int
val err_div0 : int

(** An instruction would have written sp below the stack limit. *)
val err_stack : int

(** [Trap n] aborts with code [err_user_base + n]. *)
val err_user_base : int

(** {1 Lifecycle} *)

(** A machine with nothing attached: {!run} interprets it with the
    reference loop until {!Trace.attach} installs the traced engine. *)
val create : ?fuel:int -> hw:hw -> Image.t -> t

(** Register the trap handlers for hardware generic arithmetic. *)
val set_gen_handlers : t -> add:int -> sub:int -> unit

(** Set the lowest legal sp.  An instruction that would write a smaller
    value to sp aborts with {!err_stack} instead, uncharged, in both
    engines. *)
val set_stack_limit : t -> int -> unit

val reg : t -> int -> int

(** Current program counter (an instruction index). *)
val pc : t -> int

(** Termination state, if the machine has stopped. *)
val outcome : t -> outcome option

val set_reg : t -> int -> int -> unit
val stats : t -> Stats.t

(** Direct memory access for the host (loader, result decoding,
    performance counters).  Addresses are byte addresses. *)
val peek : t -> int -> int

val poke : t -> int -> int -> unit

(** {1 Shared instruction semantics}

    Used by both the reference interpreter and the trace compiler, so
    the two engines cannot drift. *)

val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val alu_cycles : Insn.alu -> int
val alu_eval : Insn.alu -> int -> int -> int
val cond_eval : Insn.cond -> int -> int -> bool
val abort : t -> int -> unit
val errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Execute one instruction (including its delay slots), by re-decoding
    it.  This is the reference engine's step, and the traced engine's
    cold tier: everything outside a trace runs on it, so it allocates
    no closures and no address options. *)
val step : t -> unit

exception Out_of_fuel

(** Run to completion: the traced loop when {!Trace.attach} has
    installed trace-engine state, the reference loop otherwise.
    However the traced loop ends (even by {!Out_of_fuel} or a
    {!Machine_error}), it folds its delta counts into {!stats}. *)
val run : t -> outcome

(** {1 Counted deltas} *)

(** Register a delta in the trace state and return its id; safe
    across domains. *)
val register_delta : tstate -> delta -> int

(** [fold_delta s d n] adds [n] times [d] into [s]. *)
val fold_delta : Stats.t -> delta -> int -> unit

(** {1 Trace-engine counters}

    The traced loop adds its [trace.*] counts to
    {!Tagsim_metrics.Metrics} once per {!run}, even when the run ends by
    an exception; {!Trace} adds its formation counts per attempt.
    Diagnostics only: they do not feed the paper's statistics. *)

(** The trace counters as one record: a view over the registry, kept
    only for tagbench/, which still reads it; the benchmark change of
    ROADMAP item 3 removes it. *)
type trace_totals = {
  tt_formed : int;  (** [trace.formed]: superblock traces formed *)
  tt_entries : int;  (** [trace.entered] *)
  tt_side_exits : int;  (** [trace.side_exits]: exits off the expected path *)
  tt_in_trace : int;  (** [trace.in_trace]: retirements inside traces *)
  tt_retired : int;
      (** [trace.retired]: retirements (fuel units) by traced runs; a
          control instruction retires with its delay slots *)
  tt_insns : int;  (** [trace.insns]: {!Stats} instructions of traced runs *)
  tt_form_s : float;
      (** [trace.form_s]: time spent forming traces, failed attempts
          included, summed over domains *)
  tt_form_words : int;  (** [trace.form_words]: minor-heap words of formation *)
}

val trace_counters : unit -> trace_totals
