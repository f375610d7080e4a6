(** The cross-configuration differential oracle.

    One generated program is compiled and run over a configuration
    matrix — engines x backends x optimization levels over a sample of
    scheme/support pairs — and every observation the harness's cost
    model depends on is compared:

    - both backends must produce byte-identical images at [`None]
      ({!Tagsim_asm.Image.equal}), and must agree on whether the
      program compiles at all;
    - the reference and traced engines must produce the same outcome,
      bit-identical {!Tagsim_sim.Stats} and identical GC counters on the
      same image;
    - [`Checks] must preserve the observable outcome (value or trap)
      whenever run-time checking is on;
    - under full checking, the machine outcome must agree with the
      frozen host reference interpreter ({!Tagsim_compiler.Oracle}).
      The host has no heap bound, so a machine heap overflow under
      {!Gen.sizes} that disagrees with it is re-run with 16x larger
      semispaces, and that outcome must agree instead. *)

module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module Machine := Tagsim_sim.Machine
module Stats := Tagsim_sim.Stats
module Program := Tagsim_compiler.Program

type matrix = {
  m_name : string;
  m_pairs : (Scheme.t * Support.t) list;
  m_engines : Machine.engine list;
  m_backends : Program.backend list;
  m_opts : Program.opt list;
}

(** One scheme/support pair (high5, software + full checking), both
    engines, both backends, both opt levels: the [dune runtest] smoke
    matrix. *)
val smoke : matrix

(** All four schemes x a support sample (software and full checking,
    plus hardware rows under checking), both engines, both backends and
    both opt levels: the CI fuzz matrix. *)
val full : matrix

val by_name : string -> matrix option
val matrix_names : string list

(** What one configuration observed. *)
type outcome =
  | Value of string  (** printed result *)
  | Abort of string  (** trapped; the abort message *)
  | Fault of string
      (** wild memory fault (e.g. stack overrun): compared exactly
          between engines on the same image, but exempt from cross-image
          comparisons — the message embeds a layout-dependent pc *)
  | Timeout  (** ran out of the fuzzing fuel *)
  | Compile_error of string

val outcome_to_string : outcome -> string

(** What one engine run observed: the outcome, the statistics and the
    GC counters.  The statistics are kept for [Timeout] and [Fault]
    too, since the machine outlives the exception and every engine
    stops at the same retirement count; only the GC counters, read
    from memory, need a normal stop. *)
type run = {
  r_outcome : outcome;
  r_stats : Stats.t option;
  r_gc : (int * int) option;
}

(** Load and run a compiled program under one engine, with [fuel]
    retirements. *)
val run_engine : fuel:int -> engine:Machine.engine -> Program.t -> run

type divergence = {
  d_scheme : Scheme.t;
  d_support : Support.t;
  d_detail : string;  (** which configs disagreed, and on what *)
}

type verdict =
  | Agree
  | Rejected
      (** every configuration refused to compile (generator overran a
          compiler limit); consistently, so not a divergence *)
  | Diverge of divergence

(** Check one program (full source text) over the matrix.  Never raises
    on program behavior: compile failures, traps and fuel exhaustion are
    outcomes.  [fuel] is the per-run cycle budget (generated programs
    terminate by construction, so the default is generous). *)
val check : ?fuel:int -> matrix -> string -> verdict

(** [check] restricted to the scheme/support pair a divergence named:
    the shrinker's fast reproduction predicate. *)
val narrow : matrix -> divergence -> matrix
