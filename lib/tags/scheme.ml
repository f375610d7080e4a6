(** Tag implementation schemes.

    A scheme fixes where the tag lives in a 32-bit word, which tag values
    denote which Lisp types, and how integers are represented.  The four
    schemes are the ones the paper evaluates:

    - {b High5} (Section 2.1): a 5-bit tag in bits 31..27.  Positive
      integers have tag 0 and negative integers tag 31, so a Lisp integer
      {e is} its two's-complement machine representation (27-bit range).
      The data part of pointers must be masked before use.
    - {b High6} (Section 4.2): a 6-bit tag chosen so that the sum of two
      non-integer tags (with carry-in) can never look like a valid integer
      item; a generic add can then do all its type and overflow checking
      with a single check on the result.
    - {b Low2} (Section 5.2): the tag is the two low-order bits, which the
      word-addressed memory system ignores; integers are [n lsl 2] with tag
      00, and no tag removal is ever needed.  Only pairs and symbols get
      their own tag values; everything else shares the escape tag 11 and is
      discriminated by a header word.
    - {b Low3} (Section 5.2): three low-order bits; even and odd integers
      take 000 and 100 (so integers are again [n lsl 2]); pairs, symbols,
      vectors and boxed numbers get their own tags; objects are aligned on
      8-byte boundaries and the compiler folds the remaining tag bit into
      the load/store offset, so tag removal again costs nothing. *)

module Word = Tagsim_mipsx.Word

type ty = Int | Pair | Symbol | Vector | Boxnum

let ty_name = function
  | Int -> "int"
  | Pair -> "pair"
  | Symbol -> "symbol"
  | Vector -> "vector"
  | Boxnum -> "boxnum"

type layout = High5 | High6 | Low2 | Low3

(* Header subtypes for objects behind the Low2 escape tag (and present,
   for layout uniformity, in every scheme). *)
let subtype_vector = 1
let subtype_boxnum = 2

type t = {
  name : string;
  layout : layout;
  tag_shift : int;
  tag_width : int;
  addr_mask : int; (* word -> address bits actually used by memory *)
  data_mask : int; (* mask register contents for software tag removal *)
  obj_align : int; (* object alignment in bytes *)
  int_bits : int; (* usable integer precision *)
  int_min : int;
  int_max : int;
  tag : ty -> int; (* tag value of a non-integer type *)
  needs_mask : bool; (* software tag removal required (High5/High6) *)
}

let tag_of_word t w = Word.field ~shift:t.tag_shift ~width:t.tag_width w

(* --- High-tag schemes. --- *)

let high_tag ~name ~layout ~width ~tags () =
  let shift = 32 - width in
  let int_bits = shift in
  {
    name;
    layout;
    tag_shift = shift;
    tag_width = width;
    addr_mask = (1 lsl shift) - 1;
    data_mask = (1 lsl shift) - 1;
    obj_align = 4;
    int_bits;
    int_min = -(1 lsl (int_bits - 1));
    int_max = (1 lsl (int_bits - 1)) - 1;
    tag = tags;
    needs_mask = true;
  }

let high5 =
  let tags = function
    | Pair -> 1
    | Symbol -> 2
    | Vector -> 3
    | Boxnum -> 4
    | Int -> invalid_arg "integers have tags 0 and 31"
  in
  high_tag ~name:"high5" ~layout:High5 ~width:5 ~tags ()

(* High6 non-integer tags are drawn from [17, 21] (binary 01xxxx): the sum
   of any two items at least one of which is a non-integer can never have
   its top seven bits uniform, so a single validity check on the result of
   an add performs the whole generic-add type-and-overflow test
   (Section 4.2). *)
let high6 =
  let tags = function
    | Pair -> 17
    | Symbol -> 18
    | Vector -> 19
    | Boxnum -> 20
    | Int -> invalid_arg "integers have tags 0 and 63"
  in
  high_tag ~name:"high6" ~layout:High6 ~width:6 ~tags ()

(* --- Low-tag schemes. --- *)

let low2 =
  let tags = function
    | Pair -> 1
    | Symbol -> 2
    | Vector -> 3 (* escape tag; discriminated by header subtype *)
    | Boxnum -> 3
    | Int -> invalid_arg "integers have tag 0"
  in
  {
    name = "low2";
    layout = Low2;
    tag_shift = 0;
    tag_width = 2;
    addr_mask = lnot 3 land Word.mask;
    data_mask = lnot 3 land Word.mask;
    obj_align = 4;
    int_bits = 30;
    int_min = -(1 lsl 29);
    int_max = (1 lsl 29) - 1;
    tag = tags;
    needs_mask = false;
  }

let low3 =
  let tags = function
    | Pair -> 1 (* 001 *)
    | Symbol -> 2 (* 010 *)
    | Vector -> 5 (* 101: bit 2 folded into the access offset *)
    | Boxnum -> 6 (* 110 *)
    | Int -> invalid_arg "integers have tags 0 and 4"
  in
  {
    name = "low3";
    layout = Low3;
    tag_shift = 0;
    tag_width = 3;
    addr_mask = lnot 7 land Word.mask;
    data_mask = lnot 7 land Word.mask;
    obj_align = 8;
    int_bits = 30;
    int_min = -(1 lsl 29);
    int_max = (1 lsl 29) - 1;
    tag = tags;
    needs_mask = false;
  }

let all = [ high5; high6; low2; low3 ]

let by_name name =
  match List.find_opt (fun s -> s.name = name) all with
  | Some s -> s
  | None -> invalid_arg ("unknown tag scheme: " ^ name)

(* --- Host-side encoding and decoding. --- *)

let is_low t = match t.layout with Low2 | Low3 -> true | High5 | High6 -> false

(** Encode an OCaml integer as a Lisp integer item. *)
let encode_int t n =
  if n < t.int_min || n > t.int_max then
    invalid_arg (Printf.sprintf "%d out of the %d-bit integer range" n t.int_bits);
  if is_low t then Word.of_int (n lsl 2) else Word.of_int n

(** Decode a Lisp integer item to an OCaml integer (assumes the item is an
    integer). *)
let decode_int t w =
  if is_low t then Word.to_signed w asr 2
  else Word.to_signed (Word.sra (Word.sll w (32 - t.int_bits)) (32 - t.int_bits))

(** Is a word a valid integer item?  This is also the semantics of the
    hardware integer test used by [Add_gen]. *)
let is_int_item t w =
  if is_low t then w land 3 = 0
  else Word.sra (Word.sll w (32 - t.int_bits)) (32 - t.int_bits) = w

(** Did an integer add/sub overflow, given both operands were integers?
    [result] is the 32-bit wrapped result. *)
let gen_overflowed t a b result =
  if is_low t then
    (* Integers are n lsl 2, so Lisp overflow is exactly 32-bit signed
       overflow of the items. *)
    (a lxor result) land (b lxor result) land 0x80000000 <> 0
  else not (is_int_item t result)

(** Encode a pointer to [addr] with the tag of [ty]. *)
let encode_ptr t ty addr =
  if ty = Int then invalid_arg "encode_ptr: Int";
  if addr land (t.obj_align - 1) <> 0 then
    invalid_arg (Printf.sprintf "unaligned address %d for %s" addr (ty_name ty));
  match t.layout with
  | High5 | High6 -> Word.of_int ((t.tag ty lsl t.tag_shift) lor addr)
  | Low2 | Low3 -> Word.of_int (addr lor t.tag ty)

(** Address of the object a pointer item refers to. *)
let ptr_addr t w =
  match t.layout with
  | High5 | High6 -> w land t.addr_mask
  | Low2 | Low3 -> w land t.addr_mask

(** Classify an item.  [peek] reads a data-memory word; Low2 needs it to
    discriminate the escape tag via the header subtype. *)
let classify t ~peek w =
  if is_int_item t w then Int
  else
    let tag = tag_of_word t w in
    match t.layout with
    | High5 | High6 ->
        if tag = t.tag Pair then Pair
        else if tag = t.tag Symbol then Symbol
        else if tag = t.tag Vector then Vector
        else if tag = t.tag Boxnum then Boxnum
        else invalid_arg (Printf.sprintf "unknown tag %d" tag)
    | Low2 ->
        if tag = 1 then Pair
        else if tag = 2 then Symbol
        else
          let subtype = peek (ptr_addr t w) in
          if subtype = subtype_vector then Vector
          else if subtype = subtype_boxnum then Boxnum
          else invalid_arg (Printf.sprintf "unknown escape subtype %d" subtype)
    | Low3 ->
        if tag = 1 then Pair
        else if tag = 2 then Symbol
        else if tag = 5 then Vector
        else if tag = 6 then Boxnum
        else invalid_arg (Printf.sprintf "unknown tag %d" tag)

(** For low-tag pointer accesses the architecture drops the low two address
    bits for free; any remaining tag contribution (bit 2 in Low3) must be
    cancelled by the compiler in the access offset.  Returns the offset
    correction to add when indexing off a tagged pointer of type [ty]. *)
let offset_correction t ty =
  match t.layout with
  | High5 | High6 -> 0 (* pointer is masked (or the access ignores tags) *)
  | Low2 -> 0
  | Low3 -> -(t.tag ty land lnot 3)

(** Machine hardware description for this scheme. *)
let machine_hw ?(mem_bytes = 1 lsl 22) ?(trap_overhead = 16) t :
    Tagsim_sim.Machine.hw =
  {
    Tagsim_sim.Machine.mem_bytes;
    tag_shift = t.tag_shift;
    tag_width = t.tag_width;
    addr_mask = t.addr_mask land (mem_bytes - 1);
    is_int_item = is_int_item t;
    gen_overflowed = gen_overflowed t;
    trap_overhead;
  }
