(** Incremental linking of relocatable objects.

    A {!fragment} is the unit of incremental compilation: a per-unit
    (one Lisp function, the runtime routine group, the startup stub, the
    symbol-table block) instruction stream that has already been
    delay-slot scheduled, together with its static data directives.
    Per-unit scheduling is equivalent to whole-program scheduling
    because every unit begins with a label — a scheduler barrier — so
    neither hoisting, fall-through filling nor squash copying ever
    crosses a unit boundary.

    A fragment's compiler-generated labels ([prefix$N]: branch targets,
    quoted-constant cells, squash retargets) must be unique across the
    fragments of a link.  The producer guarantees it by drawing every
    unit's fresh labels from one counter (one {!Buf.t}, cleared between
    units), exactly as a monolithic compile draws them from its single
    buffer.  Named labels ([f$main], [rt$gc], [lay$heap_a], ...) are
    exports visible to every fragment.

    References to labels a fragment does not define stay symbolic in the
    fragment and are patched by the final assembly pass of {!link},
    which lays the fragments out in order (code and data independently
    concatenated) and resolves every symbol over the combined table. *)

type fragment = {
  f_code : Buf.item list; (* scheduled: every branch carries its slots *)
  f_data : (string option * Buf.datum) list;
}

(** Schedule a buffer's instruction stream and wrap it as a fragment. *)
let fragment_of_buf ?(sched = Sched.default) (buf : Buf.t) =
  {
    f_code = Sched.run ~config:sched ~fresh:(Buf.fresh buf) (Buf.items buf);
    f_data = Buf.data_items buf;
  }

(** Lay the fragments out in order (code and data concatenated
    independently), patch every reference over the combined symbol
    table, and assemble the loadable image.  A label defined twice —
    a duplicate export or a colliding fresh label — or an unresolved
    reference raises {!Image.Error}. *)
let link (fragments : fragment list) : Image.t =
  let code = List.concat_map (fun f -> f.f_code) fragments in
  let data = List.concat_map (fun f -> f.f_data) fragments in
  Image.of_items code data
