(** Compile-time symbol table.  Symbols are interned to dense indices;
    the table is emitted as the first static datum, so it sits at the
    fixed address {!Tagsim_runtime.Layout.symtab_base} and symbol items
    are compile-time constants. *)

type t

(** A table with [nil] and [t] pre-interned at their fixed indices. *)
val with_builtins : unit -> t

val intern : t -> string -> int

(** Mark a symbol as naming a compiled function of the given arity (its
    function cell will hold the code address, and its name-id word will
    carry the arity for the [funcall] arity check). *)
val mark_function : t -> string -> arity:int -> unit

(** The arity recorded by {!mark_function}, if the symbol names a
    compiled function. *)
val arity_of : t -> string -> int option

val name_of : t -> int -> string
val find_opt : t -> string -> int option

(** Emit the table; must be the first data emitted into the buffer. *)
val emit_data : t -> Tagsim_tags.Scheme.t -> Tagsim_asm.Buf.t -> unit
