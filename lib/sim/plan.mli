(** Persistent superblock trace plans: the pure-data residue of the
    traced engine's online profiling — per formed trace, the ordered
    segment path (leader, terminator, junction, expected successor) and
    the exit, with unroll and return-matching decisions already applied
    — plus a content-addressed persistent store under
    [_tagsim_cache/plan/], the [plan] namespace of
    {!Tagsim_store.Store}.  A loaded
    plan is re-validated against the live image and pre-compiled on
    attach ({!Trace.precompile}), so a warm process enters the traced
    engine with its superblocks already installed; a damaged, stale or
    mismatched plan silently falls back to online formation. *)

module Image := Tagsim_asm.Image

(** Bump on plan-format or trace-formation changes: participates in the
    key digest and the store header, so entries from either side of a
    bump are never hit (see the implementation header for the policy
    versus [Cache]). *)
val version : string

(** How a planned segment ends, and which successor the path expects.
    [Trace] re-exports this by type equation: the plan records the
    junction exactly as it was grown. *)
type jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

(** One block of a superblock path; everything else the trace compiler
    needs is re-derived from the image and validated on load. *)
type seg = { ps_pc : int; ps_stop : int; ps_jct : jct; ps_next : int }

(** One superblock: the (already unrolled) segment path and its exit. *)
type trace = { pt_segs : seg array; pt_exit : int }

(** A plan: every superblock formed for one image, in formation order. *)
type t = trace list

(** The leader pc of a planned trace ([pt_segs.(0).ps_pc]). *)
val head : trace -> int

(** {1 Store} The [plan] namespace (files [<dir>/<key>.plan], default
    directory ["_tagsim_cache/plan"]); the functions below delegate to
    {!Tagsim_store.Store} on it.  Its counters count whole plan files. *)

val namespace : Tagsim_store.Store.t
val enabled : unit -> bool
val set_enabled : bool -> unit
val dir : unit -> string
val set_dir : string -> unit
val counters : unit -> int * int * int
val load : string -> t option
val store : string -> t -> unit
val wipe : unit -> unit

(** Individual superblocks pre-compiled from loaded plans (the number a
    warm run starts with). *)
val traces_loaded : unit -> int

val note_traces_loaded : int -> unit
val reset_counters : unit -> unit

(** {1 Keys} *)

(** Content fingerprint of an image's code array (instructions,
    annotations, speculation flags).  Sharing-insensitive: structurally
    equal images fingerprint identically however they were built (cold
    compile or relink from memoised objects). *)
val image_fingerprint : Image.t -> string

(** Store key: digest of the image fingerprint, a caller-supplied
    hardware/scheme token and the {!version} stamp. *)
val key : fingerprint:string -> token:string -> string

(** On-disk path of a key's entry (for tests). *)
val entry_path : string -> string

(** {1 (De)serialisation} — line-oriented text with an ["end"]
    trailer; {!parse} raises on any structural damage (the store's
    header and payload digest catch the rest). *)

val serialize : t -> string

exception Malformed

val parse : string -> t

