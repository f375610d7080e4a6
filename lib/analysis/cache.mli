(** The persistent (L2) measurement cache: a content-addressed on-disk
    store of serialized measurements, keyed by a digest of the program
    content, the tag-scheme/support/scheduler configuration and the
    code digest the build computes over the measured code.  Keys are
    engine-agnostic (all simulator engines are bit-identical).  See the
    implementation header for the file format and the full contract. *)

module Stats := Tagsim_sim.Stats
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module Sched := Tagsim_asm.Sched
module Registry := Tagsim_programs.Registry
module Program := Tagsim_compiler.Program

(** {1 Store} Files [<dir>/<key>.entry], default directory
    ["_tagsim_cache"], disabled until {!set_enabled}.  Configure before
    any fan-out starts: workers only read these settings. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val dir : unit -> string
val set_dir : string -> unit

(** [(hits, misses, writes)]: the [cache.hits], [cache.misses] and
    [cache.writes] counters of {!Tagsim_metrics.Metrics}, as a view kept
    only for tagbench/, which still reads it; the benchmark change of
    ROADMAP item 3 removes it. *)
val counters : unit -> int * int * int

(** Delete every [*.entry] file in {!dir}: entries and the temp files
    of killed writers. *)
val wipe : unit -> unit

(** On-disk path of a key's entry (tests corrupt files through this). *)
val entry_path : string -> string

(** {1 Entries} *)

(** The content-addressed key of a configuration.  [opt] (default
    [`None]) is the backend optimization level — it changes the emitted
    code, so it participates in the digest. *)
val key :
  ?sched:Sched.config ->
  ?opt:Tagsim_compiler.Program.opt ->
  scheme:Scheme.t ->
  support:Support.t ->
  Registry.entry ->
  string

(** What a cache entry holds: everything a {!Run.measurement} carries
    beyond the configuration itself. *)
type payload = {
  p_stats : Stats.t;
  p_gc_collections : int;
  p_gc_bytes_copied : int;
  p_meta : Program.meta;
}

(** [Some payload] for a well-formed entry, counting a hit; any
    failure counts a miss.  [None], uncounted, when disabled. *)
val load : string -> payload option

(** Write the key's entry and count a write; a no-op when disabled, and
    a failed write is dropped. *)
val store : string -> payload -> unit
