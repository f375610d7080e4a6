(** The profile-guided superblock trace engine, the hot tier of
    [`Traced]: cold code runs on the reference [Machine.step] while the
    run loop counts leader-entry and edge heat; a leader crossing the
    hot threshold grows a superblock (one segment or more) along the
    expected successor path — probability-guided (growth stops when the
    product of junction shares drops below a reach cutoff), return
    addresses matched to calls crossed on the path, a loop body closed
    at its back-edge and chained to itself — and compiles it, with the
    traced engine's one instruction compiler, to one straight-line
    continuation chain with a single pre-summed statistics delta —
    charged through the same {!Stats} functions as [Machine.step], with
    cross-junction delay-slot interlocks and squashing-branch annul
    accounting statically resolved — and guarded side exits that roll
    statistics and fuel back to the exact values.
    Deltas are counted, and folded into the statistics when
    [Machine.run] returns.
    [Machine.run] on an attached machine dispatches once per trace on
    hot paths and stays bit-identical to the reference interpreter,
    [Out_of_fuel] tail included (enforced by the engine differential
    suite).  Each formed trace is also recorded as a pure
    data {!Plan.trace} in [Machine.ts_plans]; traces are formed online
    in every process and never persisted. *)

module Image := Tagsim_asm.Image

(** Entries before a leader is considered hot (default 32).
    Tests pass a small threshold to force early formation. *)
val default_threshold : int

(** Superblock length bound, in blocks. *)
val max_segments : int

(** Install the trace-engine state — the basic-block leader bitmap,
    heat and edge-profile counters and the (initially
    empty) trace table and delta registry — on the machine, which owns
    it.  From then on [Machine.run] runs the traced engine instead of
    the reference loop.  Idempotent: re-attaching an attached machine
    keeps its state, [threshold] included. *)
val attach : ?threshold:int -> Machine.t -> unit
