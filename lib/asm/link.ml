(** Incremental linking of relocatable objects.

    A {!fragment} is the unit of incremental compilation: a per-unit
    (one Lisp function, the runtime routine group, the startup stub, the
    symbol-table block) instruction stream that has already been
    delay-slot scheduled, together with its static data directives.
    Per-unit scheduling is equivalent to whole-program scheduling
    because every unit begins with a label — a scheduler barrier — so
    neither hoisting, fall-through filling nor squash copying ever
    crosses a unit boundary.

    Labels defined by a fragment split into two classes:

    - {b locals}: compiler-generated fresh labels ([prefix$N], e.g.
      branch targets, quoted-constant cells, squash retargets).  Their
      names are only unique within the unit, so the producer must
      {!rename} them behind a fragment-unique prefix — the object memo
      uses the object's content key, making the renaming stable — before
      fragments meet in a {!link};
    - {b exports}: named labels ([f$main], [rt$gc], [lay$heap_a],
      [symtab$count], ...), left untouched and visible to every other
      fragment.

    Renaming at object-build time rather than at link time keeps the
    link itself a pure concatenate-and-assemble pass — the hot path of
    a warm-cache matrix run, where every unit is served from the object
    cache and only the link remains.

    References to labels a fragment does not define are its
    {b relocations}: they stay symbolic in the object and are patched by
    the final assembly pass of {!link}, which lays the fragments out in
    order (code and data independently concatenated) and resolves every
    symbol over the combined table. *)

module Insn = Tagsim_mipsx.Insn

type fragment = {
  f_code : Buf.item list; (* scheduled: every branch carries its slots *)
  f_data : (string option * Buf.datum) list;
  f_locals : string list; (* defined labels subject to link-time renaming *)
}

(* Fresh labels have the shape [prefix$N]; everything else is an export.
   (Shared with {!Image.is_generated_label}.) *)
let is_local_label = Image.is_generated_label

let defined_labels (code : Buf.item list)
    (data : (string option * Buf.datum) list) =
  let code_labels =
    List.filter_map (function Buf.L l -> Some l | _ -> None) code
  in
  let data_labels = List.filter_map fst data in
  code_labels @ data_labels

let of_items code data =
  {
    f_code = code;
    f_data = data;
    f_locals = List.filter is_local_label (defined_labels code data);
  }

(** Schedule a buffer's instruction stream and wrap it as a fragment. *)
let fragment_of_buf ?(sched = Sched.default) (buf : Buf.t) =
  let code =
    Sched.run ~config:sched ~fresh:(Buf.fresh buf) (Buf.items buf)
  in
  of_items code (Buf.data_items buf)

(* The relocation list: labels referenced but not defined. *)
let externals (f : fragment) =
  let defined = Hashtbl.create 16 in
  List.iter
    (fun l -> Hashtbl.replace defined l ())
    (defined_labels f.f_code f.f_data);
  let refs = Hashtbl.create 16 in
  let add l = if not (Hashtbl.mem defined l) then Hashtbl.replace refs l () in
  List.iter
    (function
      | Buf.I { insn; _ } -> ignore (Insn.map_label (fun l -> add l; l) insn)
      | Buf.L _ | Buf.C _ -> ())
    f.f_code;
  List.iter
    (fun (_, d) ->
      match d with
      | Buf.Addr l | Buf.Tagged (l, _) -> add l
      | Buf.Word _ | Buf.Space _ | Buf.Align _ -> ())
    f.f_data;
  Hashtbl.fold (fun l () acc -> l :: acc) refs [] |> List.sort compare

(** Rename a fragment's locals to ["<prefix>$<local>"]; exports and
    external references pass through untouched.  The result's locals
    are unique across fragments whenever the prefixes are, which is the
    precondition {!link} relies on (the renamed names keep the
    generated-label shape, so they stay invisible to
    {!Image.is_generated_label}-based image comparison, and stay
    locals if renamed again). *)
let rename ~prefix (f : fragment) =
  match f.f_locals with
  | [] -> f
  | locals ->
      let map = Hashtbl.create 16 in
      List.iter
        (fun l -> Hashtbl.replace map l (prefix ^ "$" ^ l))
        locals;
      let r l = match Hashtbl.find_opt map l with Some l' -> l' | None -> l in
      let code =
        List.map
          (function
            | Buf.I s -> Buf.I { s with Buf.insn = Insn.map_label r s.insn }
            | Buf.L l -> Buf.L (r l)
            | Buf.C _ as c -> c)
          f.f_code
      in
      let data =
        List.map
          (fun (lbl, d) ->
            ( Option.map r lbl,
              match d with
              | Buf.Addr l -> Buf.Addr (r l)
              | Buf.Tagged (l, t) -> Buf.Tagged (r l, t)
              | (Buf.Word _ | Buf.Space _ | Buf.Align _) as d -> d ))
          f.f_data
      in
      { f_code = code; f_data = data; f_locals = List.map r locals }

(** Lay the fragments out in order (code and data concatenated
    independently), patch every relocation over the combined symbol
    table, and assemble the loadable image.  Local labels must already
    be unique across fragments ({!rename}); a collision — like a
    duplicate export or an unresolved relocation — raises
    {!Image.Error}. *)
let link (fragments : fragment list) : Image.t =
  let code = List.concat_map (fun f -> f.f_code) fragments in
  let data = List.concat_map (fun f -> f.f_data) fragments in
  Image.of_items code data
