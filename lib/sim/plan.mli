(** Superblock trace plans: the pure-data projection of a formed trace —
    the ordered segment path (leader, terminator, junction, expected
    successor) and the exit, with the return-matching decisions already
    applied.  {!Trace.form} records one per formed trace in
    [Machine.ts_plans]; nothing persists them. *)

(** How a planned segment ends, and which successor the path expects.
    [Trace] re-exports this by type equation: the plan records the
    junction exactly as it was grown. *)
type jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

(** One block of a superblock path; everything else the trace compiler
    needs is a function of the image. *)
type seg = { ps_pc : int; ps_stop : int; ps_jct : jct; ps_next : int }

(** One superblock: the segment path, each block once, and its exit. *)
type trace = { pt_segs : seg array; pt_exit : int }

(** The leader pc of a planned trace ([pt_segs.(0).ps_pc]). *)
val head : trace -> int

(** {1 Retired store}

    No-ops, kept only for tagbench/, which still calls them; the next
    benchmark change removes them.  {!enabled} is always [false], the
    counters are always 0, and {!store} writes nothing. *)

val set_dir : string -> unit
val set_enabled : bool -> unit
val enabled : unit -> bool
val store : string -> trace list -> unit
val counters : unit -> int * int * int
val traces_loaded : unit -> int
