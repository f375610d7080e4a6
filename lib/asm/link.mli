(** Incremental linking of relocatable objects: per-unit, already
    delay-slot-scheduled instruction streams with their static data,
    laid out in order and resolved by a final assembly pass.  Linked
    output is byte-identical to monolithic assembly of the same units
    because every unit begins with a label, which is a scheduler
    barrier.  Fresh labels must be unique across the fragments of a
    link: the producer draws them all from one {!Buf.t}.  See the
    implementation header for the full argument. *)

type fragment = {
  f_code : Buf.item list; (* scheduled: every branch carries its slots *)
  f_data : (string option * Buf.datum) list;
}

(** Delay-slot-schedule a buffer and wrap it as a fragment. *)
val fragment_of_buf : ?sched:Sched.config -> Buf.t -> fragment

(** Lay fragments out in order (code and data concatenated
    independently), resolve every symbol and produce the loadable
    image.  Duplicate labels and unresolved references raise
    {!Image.Error}. *)
val link : fragment list -> Image.t
