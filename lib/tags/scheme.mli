(** Tag implementation schemes: where the tag lives in a 32-bit word,
    which tag values denote which Lisp types, and how integers are
    represented.  The four schemes are the ones the paper evaluates —
    High5 (Section 2.1), High6 (Section 4.2), Low2 and Low3
    (Section 5.2); see the implementation header for their layouts. *)

type ty = Int | Pair | Symbol | Vector | Boxnum

val ty_name : ty -> string

type layout = High5 | High6 | Low2 | Low3

(** Header subtypes for objects behind the Low2 escape tag (present in
    every scheme for layout uniformity). *)
val subtype_vector : int

val subtype_boxnum : int

type t = {
  name : string;
  layout : layout;
  tag_shift : int;
  tag_width : int;
  addr_mask : int; (* word -> address bits actually used by memory *)
  data_mask : int; (* mask-register contents for software tag removal *)
  obj_align : int; (* object alignment in bytes *)
  int_bits : int; (* usable integer precision *)
  int_min : int;
  int_max : int;
  tag : ty -> int; (* tag value of a non-integer type *)
  needs_mask : bool; (* software tag removal required (High5/High6) *)
}

val tag_of_word : t -> int -> int
val high5 : t
val high6 : t
val low2 : t
val low3 : t
val all : t list

(** Look a scheme up by name; raises [Invalid_argument] if unknown. *)
val by_name : string -> t

val is_low : t -> bool

(** {1 Host-side encoding and decoding} *)

(** Encode an OCaml integer as a Lisp integer item; raises
    [Invalid_argument] when out of the scheme's range. *)
val encode_int : t -> int -> int

(** Decode a Lisp integer item (assumes the item is an integer). *)
val decode_int : t -> int -> int

(** Is a word a valid integer item?  Also the semantics of the hardware
    integer test used by [Add_gen]. *)
val is_int_item : t -> int -> bool

(** Did an integer add/sub overflow, given both operands were integers?
    The third argument is the 32-bit wrapped result. *)
val gen_overflowed : t -> int -> int -> int -> bool

(** Encode a pointer with the tag of the given type; the address must be
    [obj_align]-aligned. *)
val encode_ptr : t -> ty -> int -> int

(** Address of the object a pointer item refers to. *)
val ptr_addr : t -> int -> int

(** Classify an item.  [peek] reads a data-memory word; Low2 needs it to
    discriminate the escape tag via the header subtype. *)
val classify : t -> peek:(int -> int) -> int -> ty

(** Offset correction the compiler must fold into accesses through a
    tagged pointer of the given type (non-zero only for Low3). *)
val offset_correction : t -> ty -> int

(** Machine hardware description for this scheme. *)
val machine_hw :
  ?mem_bytes:int -> ?trap_overhead:int -> t -> Tagsim_sim.Machine.hw
