(** Mutable assembly buffer: the DSL in which the compiler and the
    runtime emit code and static data. *)

module Insn := Tagsim_mipsx.Insn
module Annot := Tagsim_mipsx.Annot

type slot = {
  insn : string Insn.t;
  annot : Annot.t;
  speculative : bool;
      (** placed in a delay slot ahead of a guard; memory faults are
          ignored by the simulator *)
}

type item = I of slot | L of string | C of string (* comment, for dumps *)

type datum =
  | Word of int
  | Addr of string (* resolved address of a label *)
  | Tagged of string * (int -> int) (* address of a label, transformed *)
  | Space of int (* n zero words *)
  | Align of int (* align to n bytes *)

type t

val create : unit -> t

(** Append an instruction. *)
val emit : ?annot:Annot.t -> ?speculative:bool -> t -> string Insn.t -> unit

(** Place a label at the current position. *)
val label : t -> string -> unit

val comment : t -> string -> unit

(** A fresh label with the given prefix, unique within this buffer. *)
val fresh : t -> string -> string

(** {1 Data directives}  [?label] names the datum emitted. *)

val data : ?label:string -> t -> datum -> unit
val word : ?label:string -> t -> int -> unit
val space : ?label:string -> t -> int -> unit
val align : t -> int -> unit

(** {1 Access} *)

val items : t -> item list
val data_items : t -> (string option * datum) list

(** Append the contents of the second buffer after the first (used to
    link compiler output with the runtime). *)
val append : t -> t -> unit

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
