(** Whole-program compilation, loading and execution: a Lisp source
    defining [(de main () ...)] is compiled with the prelude (unreachable
    functions pruned), linked with the runtime, assembled, loaded into a
    simulator instance and run. *)

module Image := Tagsim_asm.Image
module Sched := Tagsim_asm.Sched
module Machine := Tagsim_sim.Machine
module Stats := Tagsim_sim.Stats
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module L := Tagsim_runtime.Layout

exception Error of string

(** Static metadata, for Table 3 (and the elision artifact). *)
type meta = {
  procedures : int; (* retained definitions, prelude included *)
  source_lines : int; (* non-blank lines of retained source *)
  object_words : int;
  checks_eliminated : int;
      (* checks the optimizer deleted across all units; 0 under
         [`None] and for the monolithic oracle *)
}

type t = {
  image : Image.t;
  scheme : Scheme.t;
  support : Support.t;
  symtab : Symtab.t;
  sizes : L.sizes;
  mem_bytes : int;
  meta : meta;
}

(** {1 Staged pipeline}

    Parsing, macro-expansion and reachability pruning are independent of
    the tag scheme, the support flags and the scheduler configuration, so
    when one source is compiled under a whole configuration matrix the
    front half runs once ({!analyze}) and only the tag-dependent back
    half ({!compile_frontend}) re-runs per configuration.  A [frontend]
    is immutable and safe to share across worker domains. *)

type frontend = {
  fe_retained : (string * Tagsim_lisp.Ast.def) list;
      (* pruned, prelude included, definition order *)
  fe_procedures : int;
  fe_source_lines : int; (* user + retained prelude, non-blank lines *)
}

(** Parse, expand and prune a program (with the pre-expanded prelude);
    raises {!Error} on malformed sources. *)
val analyze : string -> frontend

(** Backend selection.  [`Incremental] (the default) compiles one
    relocatable object per unit — startup stub, each function, the
    runtime group — schedules each independently and links them with
    {!Tagsim_asm.Link.link}; [`Monolithic] is the original
    single-buffer whole-program path, kept as the differential oracle.
    Both produce byte-identical images ({!Tagsim_asm.Image.equal}). *)
type backend = [ `Monolithic | `Incremental ]

(** Optimization level for the incremental backend's TIR pipeline:
    [`None] (default) selects straight from the lowered IR and is
    byte-identical to the monolithic oracle; [`Checks] runs the
    tag-knowledge check-elimination pass ({!Checkelim}) first.  The
    monolithic oracle ignores the knob (always unoptimized). *)
type opt = Tir.opt

(** The config-dependent back half: lowering, optimization, selection,
    scheduling, linking (or, for the monolithic backend, whole-program
    codegen and assembly). *)
val compile_frontend :
  ?backend:backend ->
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  scheme:Scheme.t ->
  support:Support.t ->
  frontend ->
  t

(** [compile_frontend] of [analyze]: the one-shot pipeline. *)
val compile :
  ?backend:backend ->
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  scheme:Scheme.t ->
  support:Support.t ->
  string ->
  t

(** {1 Results} *)

(** Host-side view of a Lisp value. *)
type hval =
  | Hint of int
  | Hsym of string
  | Hpair of hval * hval
  | Hvec of hval array
  | Hbox of int

val pp_hval : Format.formatter -> hval -> unit
val hval_to_string : hval -> string

(** Decode a machine word into a host value (bounded depth). *)
val decode : t -> Machine.t -> int -> hval

type result = {
  value : hval option; (* Some v on normal termination *)
  abort : string option;
  stats : Stats.t;
  gc_collections : int;
  gc_bytes_copied : int;
  map : L.map;
}

val abort_message : int -> string

(** A no-op constant ([""]), kept only for tagbench/, which still calls
    it; the next benchmark change removes it. *)
val plan_key : t -> string

(** Create a machine, poke the memory-map words and register the trap
    handlers; ready to run from address 0.  [engine] selects the
    simulator engine (default [`Traced], the fast path; [`Reference]
    attaches nothing and runs the oracle interpreter; both produce
    bit-identical statistics).  Under [`Traced], each machine gets
    trace-engine state of its own ({!Trace.attach}): it forms its own
    traces, and none are persisted. *)
val load : ?fuel:int -> ?engine:Machine.engine -> t -> Machine.t * L.map

(** [run] is [load] + [Machine.run] + result decoding. *)
val run : ?fuel:int -> ?engine:Machine.engine -> t -> result

(** Compile and run in one step. *)
val run_source :
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  ?fuel:int ->
  ?engine:Machine.engine ->
  scheme:Scheme.t ->
  support:Support.t ->
  string ->
  t * result
