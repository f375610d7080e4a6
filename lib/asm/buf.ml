(** Mutable assembly buffer: the DSL in which the compiler and the runtime
    emit code and static data. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot

type slot = {
  insn : string Insn.t;
  annot : Annot.t;
  speculative : bool;
      (* placed in a delay slot ahead of a guard; memory faults are ignored *)
}

type item = I of slot | L of string | C of string (* comment, for dumps *)

type datum =
  | Word of int
  | Addr of string (* resolved address of a label *)
  | Tagged of string * (int -> int) (* address of a label, transformed *)
  | Space of int (* n zero words *)
  | Align of int (* align to n bytes *)

type t = {
  mutable items : item list; (* reversed *)
  mutable data : (string option * datum) list; (* reversed *)
  mutable next_fresh : int;
}

let create () = { items = []; data = []; next_fresh = 0 }

let emit ?(annot = Annot.plain) ?(speculative = false) t insn =
  t.items <- I { insn; annot; speculative } :: t.items

let label t l = t.items <- L l :: t.items
let comment t c = t.items <- C c :: t.items

let fresh t prefix =
  let n = t.next_fresh in
  t.next_fresh <- n + 1;
  Printf.sprintf "%s$%d" prefix n

(* Data directives. [dlabel] names the *next* datum emitted. *)
let data ?label t d = t.data <- (label, d) :: t.data
let word ?label t w = data ?label t (Word w)
let space ?label t n = data ?label t (Space n)
let align t n = data t (Align n)

let items t = List.rev t.items
let data_items t = List.rev t.data

(** Append the contents of [src] to [dst] (used to link compiler output with
    the runtime).  Fresh-label counters are merged to keep labels unique,
    provided both buffers used [fresh] with distinct prefixes or were
    created from the same counter stream. *)
let append dst src =
  (* Both item lists are stored reversed, so concatenating the reversed
     source in front keeps program order. *)
  dst.items <- src.items @ dst.items;
  dst.data <- src.data @ dst.data;
  dst.next_fresh <- max dst.next_fresh src.next_fresh

let pp_item ppf = function
  | I { insn; annot; _ } ->
      Fmt.pf ppf "        %a" (Insn.pp Fmt.string) insn;
      if annot.Annot.kind <> Annot.Plain || annot.Annot.checking then
        Fmt.pf ppf "  ; %a" Annot.pp annot
  | L l -> Fmt.pf ppf "%s:" l
  | C c -> Fmt.pf ppf "        ; %s" c

let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_item) ppf (items t)
