(** The global fan-out planner: unions and deduplicates the
    configuration matrices of any set of {!Spec.artifact}s, fans the
    union out once over the {!Pool} worker domains, and renders every
    artifact from the shared measurement store; plus the structured
    sinks (JSON / CSV) over the rendered results. *)

module Machine := Tagsim_sim.Machine
module Registry := Tagsim_programs.Registry

(** Every artifact of the reproduction, in output order: table1,
    figure1, figure2, table2, table3, garith, ablations, elision. *)
val artifacts : Spec.artifact list

val names : unit -> string list
val find : string -> Spec.artifact option

(** Execute a plan: one deduplicated fan-out over the union of the
    requested artifacts' matrices, then render each from the shared
    store (results in request order).  [entries] restricts the benchmark
    suite (defaults to the full registry); [engine] selects the
    simulator engine for the whole plan (default [`Traced], numerically
    irrelevant); [jobs] defaults to {!Pool.default_jobs}. *)
val plan :
  ?jobs:int ->
  ?engine:Machine.engine ->
  ?entries:Registry.entry list ->
  Spec.artifact list ->
  Spec.rendered list

(** {1 Sinks} *)

(** The machine-readable form of a whole plan (RESULTS.json):
    deterministic fields only, so CI can diff regenerated output against
    the committed file. *)
val json_of : Spec.rendered list -> Spec.json

val json_string : Spec.rendered list -> string

(** All CSV sections of a plan, blank-line separated. *)
val csv_string : Spec.rendered list -> string

val write_json : string -> Spec.rendered list -> unit
val write_csv : string -> Spec.rendered list -> unit
