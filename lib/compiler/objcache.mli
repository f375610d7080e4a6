(** Retired: the in-process object memo of the incremental backend.

    The memo is deleted: keying every unit cost more than its hits
    saved, and it kept every object and linked image alive for the
    life of the process.  These shims remain only for tagbench/, which
    still calls them; the next benchmark change removes them. *)

(** Always [(0, 0, 0)]: nothing is memoised, so nothing hits, misses or
    is written. *)
val counters : unit -> int * int * int

(** No-ops. *)
val set_dir : string -> unit

val set_enabled : bool -> unit
