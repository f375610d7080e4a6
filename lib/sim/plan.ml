(** Superblock trace plans: the pure-data projection of a formed trace.
    Plans contain no closures and no statistics — instruction entries,
    compiled delay slots, block lengths and squash flags are functions of
    the image — so a plan is exactly the set of formation decisions:
    which leaders, which junction directions, where the trace exits. *)

(* How a planned segment ends, and which successor the path expects.
   Mirrored (by type equation) into [Trace]'s growth machinery so the
   plan records the junction exactly as it was grown. *)
type jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

(* One block of a superblock path. *)
type seg = {
  ps_pc : int; (* leader *)
  ps_stop : int; (* terminator address *)
  ps_jct : jct;
  ps_next : int; (* expected successor leader (trace exit for the last) *)
}

(* One superblock: the segment path, each block once, and its exit. *)
type trace = { pt_segs : seg array; pt_exit : int }

let head (tr : trace) = tr.pt_segs.(0).ps_pc

(* The retired on-disk store's entry points, as no-ops for tagbench/. *)
let set_dir (_ : string) = ()
let set_enabled (_ : bool) = ()
let enabled () = false
let store (_ : string) (_ : trace list) = ()
let counters () = (0, 0, 0)
let traces_loaded () = 0
