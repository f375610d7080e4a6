(** Execution statistics: cycles classified by annotation (Section 3 of
    the paper) and instruction frequencies classified by class
    (Figure 2). *)

module Annot := Tagsim_mipsx.Annot
module Insn := Tagsim_mipsx.Insn

type t = {
  mutable cycles : int;
  mutable insns : int; (* executed instructions, including slot no-ops *)
  kind_cycles : int array; (* (kind, checking)-indexed cycle counters *)
  klass_insns : int array; (* instruction counts per class *)
  mutable squashed : int; (* annulled slot instructions (cycles) *)
  mutable interlocks : int; (* load-use interlock cycles *)
  mutable traps : int;
  mutable trap_cycles : int;
}

val create : unit -> t

(** Zero every counter (the trace compiler reuses one [t] for the units
    it snapshots on their own). *)
val clear : t -> unit

(** {1 Charging}

    The reference [Machine.step] and the trace compiler charge through
    these functions alone, so the two engines share one cycle ledger. *)

val charge : t -> Annot.t -> int -> unit
val count_insn : t -> Insn.klass -> unit

(** One load-use interlock: a no-op cycle, counted in the no-op class. *)
val interlock : t -> unit

(** The two annulled delay slots of a squashing branch that falls
    through: two cycles charged to the branch's annotation, counted as
    squashed. *)
val annul : t -> Annot.t -> unit

(** [trap t ~checking overhead] counts one resumable generic-arithmetic
    trap and charges its [overhead] cycles to generic arithmetic, in the
    trapping instruction's [checking] half. *)
val trap : t -> checking:bool -> int -> unit

(** [merge dst src] accumulates every counter of [src] into [dst]; used
    when combining the measurements of partitioned work (e.g. the
    parallel experiment pool). *)
val merge : t -> t -> unit

(** Field-wise equality of every counter (the differential engine tests
    rely on this being exhaustive). *)
val equal : t -> t -> bool

(** The conservation laws every measurement obeys: [cycles = Σ
    kind_cycles + interlocks] and [insns = Σ klass_insns].  [None] when
    both hold, otherwise the law that broke, with its two sides. *)
val broken_law : t -> string option

(** {1 Sparse deltas}

    The trace compiler pre-sums the statistics of a path into a [t],
    stores it as a sparse delta, and counts how often the path ran;
    [Machine.run] folds [count * delta] back in when it returns. *)

type delta

(** The non-zero counters of a [t]: [fold_delta s (compress u) 1] adds
    [u] to [s]. *)
val compress : t -> delta

(** [fold_delta s d n] adds [n] times [d] into [s]. *)
val fold_delta : t -> delta -> int -> unit

(** {1 Accessors used by the analysis layer} *)

val total : t -> int
val executed_insns : t -> int

(** Cycles charged to a kind.  [checking] selects instructions that exist
    only because run-time checking is on ([Some true]), only base
    instructions ([Some false]), or both ([None], the default). *)
val kind : ?checking:bool -> t -> Annot.kind -> int

val insertion : ?checking:bool -> t -> int
val removal : ?checking:bool -> t -> int
val extraction : ?checking:bool -> t -> int

(** Compare-and-branch cycles of checks (excluding extraction); the
    paper's "tag checking" cost is [extraction + check_only]. *)
val check_only : ?checking:bool -> ?source:Annot.source -> t -> int

val extraction_of : ?checking:bool -> t -> Annot.source -> int

(** Full tag-checking cost for a source: extraction plus compare/branch. *)
val checking_of : ?checking:bool -> t -> Annot.source -> int

val tag_checking : ?checking:bool -> t -> int
val generic_arith : ?checking:bool -> t -> int
val alloc : t -> int
val gc : t -> int
val klass_count : t -> Insn.klass -> int
val pp : Format.formatter -> t -> unit
