(** Measurement driver: run a benchmark under a configuration, validate
    its result against the registry's expected value, and hand back the
    statistics.  Runs are memoised behind a mutex (the experiments share
    many configurations), and {!run_many} fans a configuration matrix
    out across the {!Pool} worker domains. *)

module Stats := Tagsim_sim.Stats
module Machine := Tagsim_sim.Machine
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module Sched := Tagsim_asm.Sched
module Program := Tagsim_compiler.Program
module Registry := Tagsim_programs.Registry

(** A simulation aborted, returned a value other than the benchmark's
    expected one, or produced statistics that break a conservation law
    ({!Tagsim_sim.Stats.broken_law}). *)
exception Wrong_result of string

type measurement = {
  entry : Registry.entry;
  scheme : Scheme.t;
  support : Support.t;
  stats : Stats.t;
  gc_collections : int;
  gc_bytes_copied : int;
  meta : Program.meta;
}

(** A point of the experiment matrix, as submitted to {!run_many}.  The
    simulator engine is an explicit field (no global state); all engines
    produce bit-identical statistics, so it only selects the speed of
    reproduction. *)
type config = {
  c_sched : Sched.config;
  c_opt : Program.opt; (* backend optimization level; changes code *)
  c_scheme : Scheme.t;
  c_support : Support.t;
  c_entry : Registry.entry;
  c_engine : Machine.engine;
}

(** Empty the in-process memo cache (tests; the persistent store is
    {!Cache}'s and is untouched). *)
val clear_cache : unit -> unit

(** The persistent-store key of a configuration: engine-agnostic
    content-addressed digest (see {!Cache.key}). *)
val cache_key : config -> string

(** The [run.simulations] counter of {!Tagsim_metrics.Metrics}:
    simulations performed, that is memo and store misses.  {!run_many}
    deduplicates its matrix before it dispatches, so a fan-out at any
    job count simulates each configuration once.  A view kept only for
    tagbench/, which still reads it; the benchmark change of ROADMAP
    item 3 removes it. *)
val simulations : unit -> int

(** Engine-agnostic identity of a configuration (entry, scheme, support,
    scheduler, optimization level): the key of the planner's measurement
    store. *)
val matrix_key : config -> string

(** Engine-qualified memo key. *)
val config_key : config -> string

val run :
  ?sched:Sched.config ->
  ?opt:Program.opt ->
  ?engine:Machine.engine ->
  scheme:Scheme.t ->
  support:Support.t ->
  Registry.entry ->
  measurement

(** Build a configuration; [opt] defaults to [`None], [engine] to
    [`Traced]. *)
val config :
  ?sched:Sched.config ->
  ?opt:Program.opt ->
  ?engine:Machine.engine ->
  scheme:Scheme.t ->
  support:Support.t ->
  Registry.entry ->
  config

val run_config : config -> measurement

(** Run a configuration matrix on the pool's worker domains ([jobs]
    defaults to {!Pool.default_jobs}) and return the measurements in
    input order.  Duplicated configurations are simulated once, and the
    memo + persistent caches are consulted before dispatch: only missing
    configurations reach the pool. *)
val run_many : ?jobs:int -> config list -> measurement list

val all_entries : unit -> Registry.entry list

(** {1 Aggregation helpers} *)

val pct : int -> int -> float
val mean : float list -> float
val stddev : float list -> float
