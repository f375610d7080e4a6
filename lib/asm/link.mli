(** Incremental linking of relocatable objects: per-unit, already
    delay-slot-scheduled instruction streams with their static data,
    local (fresh) labels renamed behind a fragment-unique prefix by the
    producer, exports shared, and external references patched by a
    final assembly pass.  Linked output is byte-identical to monolithic
    assembly of the same units because every unit begins with a label,
    which is a scheduler barrier.  See the implementation header for
    the full argument. *)

type fragment = {
  f_code : Buf.item list; (* scheduled: every branch carries its slots *)
  f_data : (string option * Buf.datum) list;
  f_locals : string list; (* defined labels subject to link-time renaming *)
}

(** Is a label unit-local (compiler-generated [prefix$N]) rather than a
    named export? *)
val is_local_label : string -> bool

(** Wrap an already-scheduled stream as a fragment (locals computed). *)
val of_items :
  Buf.item list -> (string option * Buf.datum) list -> fragment

(** Delay-slot-schedule a buffer and wrap it as a fragment. *)
val fragment_of_buf : ?sched:Sched.config -> Buf.t -> fragment

(** The relocation list: labels referenced but not defined, sorted. *)
val externals : fragment -> string list

(** Rename the fragment's locals to ["<prefix>$<local>"] (definitions
    and references alike); exports and externals pass through.  Locals
    of renamed fragments are unique across a link whenever their
    prefixes are — the object memo prefixes with the object's content
    key — and the renamed names keep the generated-label shape. *)
val rename : prefix:string -> fragment -> fragment

(** Lay fragments out in order (code and data concatenated
    independently), resolve every symbol and produce the loadable
    image.  Locals must already be unique across the fragments
    ({!rename}); collisions, duplicate exports and unresolved
    relocations raise {!Image.Error}. *)
val link : fragment list -> Image.t
