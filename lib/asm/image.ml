(** Two-pass assembler: resolves labels and produces a loadable image.

    Code and data live in separate address spaces (Harvard style, like an
    instruction-level simulator that only counts cycles): code addresses are
    instruction indices, data addresses are byte addresses.  All data
    accesses are word-aligned; the low two address bits are ignored by the
    memory system, which is exactly the property the low-tag schemes of
    Section 5.2 exploit. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type entry = { insn : int Insn.t; annot : Annot.t; speculative : bool }

type t = {
  code : entry array;
  code_symbols : (string, int) Hashtbl.t;
  data_symbols : (string, int) Hashtbl.t; (* byte addresses *)
  data_words : int array; (* initial data image, starting at address 0 *)
  data_end : int; (* first free byte address after static data *)
  source : Buf.item list; (* scheduled symbolic program, for dumps *)
}

(* The first words of data memory are reserved so that address 0 is never a
   valid object address. *)
let data_base = 64

(* Assemble an already-scheduled item stream and data directive list.
   This is the linker's entry point: fragments are delay-slot-scheduled
   per unit, concatenated, and must NOT be re-scheduled here (that would
   add slots after slots). *)
let of_items (items : Buf.item list)
    (data : (string option * Buf.datum) list) : t =
  (* Pass 1a: code labels. *)
  let code_symbols = Hashtbl.create 256 in
  let n_insns =
    List.fold_left
      (fun idx item ->
        match item with
        | Buf.I _ -> idx + 1
        | Buf.L l ->
            if Hashtbl.mem code_symbols l then errorf "duplicate label %s" l;
            Hashtbl.replace code_symbols l idx;
            idx
        | Buf.C _ -> idx)
      0 items
  in
  (* Pass 1b: data labels and layout. *)
  let data_symbols = Hashtbl.create 256 in
  let layout = ref [] in
  let addr = ref data_base in
  List.iter
    (fun (lbl, datum) ->
      (match datum with
      | Buf.Align bytes ->
          if bytes <= 0 || bytes land (bytes - 1) <> 0 then
            errorf "bad alignment %d" bytes;
          addr := (!addr + bytes - 1) land lnot (bytes - 1)
      | Buf.Word _ | Buf.Addr _ | Buf.Tagged _ | Buf.Space _ -> ());
      (match lbl with
      | Some l ->
          if Hashtbl.mem data_symbols l || Hashtbl.mem code_symbols l then
            errorf "duplicate label %s" l;
          Hashtbl.replace data_symbols l !addr
      | None -> ());
      match datum with
      | Buf.Word w ->
          layout := (!addr, `Word w) :: !layout;
          addr := !addr + 4
      | Buf.Addr l ->
          layout := (!addr, `Addr l) :: !layout;
          addr := !addr + 4
      | Buf.Tagged (l, f) ->
          layout := (!addr, `Tagged (l, f)) :: !layout;
          addr := !addr + 4
      | Buf.Space n -> addr := !addr + (4 * n)
      | Buf.Align _ -> ())
    data;
  let data_end = !addr in
  let resolve_any l =
    match Hashtbl.find_opt data_symbols l with
    | Some a -> a
    | None -> (
        match Hashtbl.find_opt code_symbols l with
        | Some a -> a
        | None -> errorf "undefined label %s" l)
  in
  let resolve_code l =
    match Hashtbl.find_opt code_symbols l with
    | Some a -> a
    | None -> errorf "undefined code label %s" l
  in
  (* Pass 2: resolve instructions. *)
  let code = Array.make n_insns { insn = Insn.Nop; annot = Annot.plain;
                                  speculative = false } in
  let idx = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Buf.I { insn; annot; speculative } ->
          let resolved =
            match insn with
            | Insn.B _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ ->
                Insn.map_label resolve_code insn
            | _ -> Insn.map_label resolve_any insn
          in
          code.(!idx) <- { insn = resolved; annot; speculative };
          incr idx
      | Buf.L _ | Buf.C _ -> ())
    items;
  (* Pass 2b: fill the initial data image. *)
  let data_words = Array.make ((data_end + 3) / 4) 0 in
  List.iter
    (fun (a, v) ->
      let w =
        match v with
        | `Word w -> w
        | `Addr l -> resolve_any l
        | `Tagged (l, t) -> t (resolve_any l)
      in
      data_words.(a / 4) <- w land Tagsim_mipsx.Word.mask)
    !layout;
  { code; code_symbols; data_symbols; data_words; data_end; source = items }

let assemble ?(sched = Sched.default) (buf : Buf.t) : t =
  let fresh = Buf.fresh buf in
  let items = Sched.run ~config:sched ~fresh (Buf.items buf) in
  of_items items (Buf.data_items buf)

(* Byte-identity of two images: same resolved code entries, same initial
   data image, same layout bound, and the same addresses for every named
   (non-generated) symbol.  Generated labels — a ["$"]-suffix-digits fresh
   label, possibly behind a link-time ["u<k>$"] prefix — may differ in
   name between a monolithically assembled image and a linked one without
   affecting a single resolved word, so they are excluded from the symbol
   comparison. *)
let is_generated_label l =
  match String.rindex_opt l '$' with
  | None -> false
  | Some i ->
      let n = String.length l in
      i + 1 < n
      &&
      let rec digits j = j >= n || ('0' <= l.[j] && l.[j] <= '9' && digits (j + 1)) in
      digits (i + 1)

let equal a b =
  let named_symbols tbl =
    Hashtbl.fold
      (fun l addr acc -> if is_generated_label l then acc else (l, addr) :: acc)
      tbl []
    |> List.sort compare
  in
  a.code = b.code && a.data_words = b.data_words && a.data_end = b.data_end
  && named_symbols a.code_symbols = named_symbols b.code_symbols
  && named_symbols a.data_symbols = named_symbols b.data_symbols

let code_address t l =
  match Hashtbl.find_opt t.code_symbols l with
  | Some a -> a
  | None -> errorf "unknown code symbol %s" l

let data_address t l =
  match Hashtbl.find_opt t.data_symbols l with
  | Some a -> a
  | None -> errorf "unknown data symbol %s" l

let size_in_words t = Array.length t.code

let pp ppf t =
  Fmt.(list ~sep:(any "@\n") Buf.pp_item) ppf t.source
