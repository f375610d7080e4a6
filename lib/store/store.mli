(** The content-addressed on-disk store behind the measurement cache.
    (Compiled objects and trace plans are not persisted: one file per
    object made a cold run slower than recompiling, and persisted
    plans bought no measurable end-to-end time; see [Plan].)

    A namespace maps hex keys to bytes, one file [<dir>/<key>.<ext>]
    per key, starting with the header line
    [tagsim-store <name> <version> <key> <md5 of body>].  A lookup
    returns the body only when all four fields match, so a missing,
    unreadable, truncated, bit-flipped, stale-version or misplaced file
    is a counted miss, never a hit with other bytes.  Writes go to a
    unique temp file renamed over the entry, so concurrent processes
    and domains never expose a partial file; a failed write is dropped
    silently. *)

type t

(** A namespace, disabled until {!set_enabled}.  [name] and [version]
    contain no spaces; both enter every key and every header, so a
    version bump turns all earlier entries into misses. *)
val create : name:string -> ext:string -> version:string -> dir:string -> t

(** Configure before any fan-out starts: workers only read these. *)
val enabled : t -> bool

val set_enabled : t -> bool -> unit
val dir : t -> string
val set_dir : t -> string -> unit

(** A digest of the name, the version and the caller's key parts. *)
val key : t -> string list -> string

val path : t -> string -> string

(** [Some (parse body)] for a well-formed entry, counting a hit; any
    failure, [parse] raising included, counts a miss.  [None],
    uncounted, when disabled. *)
val load : t -> string -> (string -> 'a) -> 'a option

(** Write [serialize v] as the key's entry and count a write; no-op
    when disabled. *)
val store : t -> string -> ('a -> string) -> 'a -> unit

(** [(hits, misses, writes)] since start or {!reset_counters}. *)
val counters : t -> int * int * int

val reset_counters : t -> unit

(** Delete every file in {!dir} whose name ends in [.<ext>]: entries
    and the temp files of killed writers. *)
val wipe : t -> unit
