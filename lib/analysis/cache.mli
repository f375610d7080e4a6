(** The persistent (L2) measurement cache: a content-addressed on-disk
    store of serialized measurements, keyed by a digest of the program
    content, the tag-scheme/support/scheduler configuration, the prelude
    sources and the {!version} stamp.  Keys are engine-agnostic (all
    simulator engines are bit-identical).  See the implementation
    header for the full contract. *)

module Stats := Tagsim_sim.Stats
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module Sched := Tagsim_asm.Sched
module Registry := Tagsim_programs.Registry
module Program := Tagsim_compiler.Program

(** The cache format/semantics stamp.  Bump it whenever code generation,
    the runtime, scheme semantics, the cost model or the [Stats] layout
    change: any of those alters measurements without changing the key's
    other inputs.  Objects are not persisted, so this is the only stamp
    a code-generation change bumps. *)
val version : string

(** {1 Store} The [cache] namespace (files [<dir>/<key>.entry],
    default directory ["_tagsim_cache"]); the functions below delegate
    to {!Tagsim_store.Store} on it. *)

val namespace : Tagsim_store.Store.t
val enabled : unit -> bool
val set_enabled : bool -> unit
val dir : unit -> string
val set_dir : string -> unit
val counters : unit -> int * int * int
val reset_counters : unit -> unit
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

val load : string -> payload option
val store : string -> payload -> unit
