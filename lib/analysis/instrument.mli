(** Wall-clock phase accounting for the measurement pipeline: compile,
    simulate and render seconds accumulated across all worker domains,
    printed by the CLI under [--verbose]. *)

type phase = Compile | Simulate | Render

(** [Unix.gettimeofday]. *)
val now : unit -> float

(** Accumulate [dt] seconds into a phase total (thread-safe). *)
val add : phase -> float -> unit

(** Run [f] and charge its wall-clock duration to [phase] (also on
    exception). *)
val time : phase -> (unit -> 'a) -> 'a

(** [(compile, simulate, render)] seconds since start or {!reset}. *)
val totals : unit -> float * float * float

(** Backend breakdown of the [Compile] phase, re-exported from
    {!Tagsim_compiler.Bphase}: per-phase seconds (monolithic codegen,
    incremental lower/opt/select, scheduling, assembly, linking). *)
val backend_totals : unit -> Tagsim_compiler.Bphase.totals

(** The traced engine's superblock counters, re-exported from
    {!Tagsim_sim.Machine.trace_counters}. *)
val trace_totals : unit -> Tagsim_sim.Machine.trace_totals

(** Clears the pipeline totals, the backend breakdown, the trace
    counters and the plan-store counters. *)
val reset : unit -> unit
