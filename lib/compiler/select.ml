(** Instruction selection: typed tag-operation IR ({!Tir}) to annotated
    assembly.

    This pass owns every scheme x support instruction sequence —
    tag insertion/removal/extraction, type checks, generic-arith
    dispatch, allocation — via {!Tagsim_runtime.Emit}, and none of the
    shape decisions, which {!Lower} already froze into the IR.  Each
    sequence is a faithful transliteration of the corresponding
    fragment of {!Codegen}, so [Select.fn] over unoptimized TIR
    reproduces the monolithic output byte for byte. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Buf = Tagsim_asm.Buf
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Emit = Tagsim_runtime.Emit
module L = Tagsim_runtime.Layout
module Ast = Tagsim_lisp.Ast

let errorf fmt = Fmt.kstr (fun s -> raise (Codegen.Error s)) fmt

type sel = {
  ctx : Emit.ctx;
  symtab : Symtab.t;
  mutable stubs : (unit -> unit) list; (* emitted after the body *)
}

let e_ ?annot f insn = Emit.emit ?annot f.ctx insn
let fresh f p = Emit.fresh f.ctx p
let label f l = Emit.label f.ctx l
let scheme f = f.ctx.Emit.scheme
let support f = f.ctx.Emit.support
let checking f = (support f).Support.runtime_checking

let mv ?annot f rd rs = if rd <> rs then e_ ?annot f (Insn.Mv (rd, rs))

let global_offset f v =
  let idx = Symtab.intern f.symtab v in
  idx * L.sym_cell_size

let load_loc f rd (l : Tir.loc) =
  match l with
  | Tir.Lreg (r, _) -> mv f rd r
  | Tir.Lslot off -> e_ f (Insn.Ld (Insn.Plain, rd, Reg.sp, off))
  | Tir.Lglobal v ->
      e_ f (Insn.Ld (Insn.Plain, rd, Reg.stb, global_offset f v + L.sym_off_value))

let store_loc f (l : Tir.loc) ~src =
  match l with
  | Tir.Lreg (r, _) -> mv f r src
  | Tir.Lslot off -> e_ f (Insn.St (Insn.Plain, Reg.sp, src, off))
  | Tir.Lglobal v ->
      e_ f (Insn.St (Insn.Plain, Reg.stb, src, global_offset f v + L.sym_off_value))

(* --- Spilling around user calls. --- *)

let spill_for_call f ~live_temps ~saves =
  for i = 0 to live_temps - 1 do
    e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.temp i, Tir.off_temp_spill i))
  done;
  List.iter (fun (r, home) -> e_ f (Insn.St (Insn.Plain, Reg.sp, r, home))) saves

let reload_after_call f ~live_temps ~saves =
  for i = 0 to live_temps - 1 do
    e_ f (Insn.Ld (Insn.Plain, Reg.temp i, Reg.sp, Tir.off_temp_spill i))
  done;
  List.iter (fun (r, home) -> e_ f (Insn.Ld (Insn.Plain, r, Reg.sp, home))) saves

(* --- Constants. --- *)

let encode_const_int f n =
  let s = scheme f in
  if n < s.Scheme.int_min || n > s.Scheme.int_max then
    errorf "integer literal %d out of range for scheme %s" n s.Scheme.name;
  Scheme.encode_int s n

let tagger f ty a = Scheme.encode_ptr (scheme f) ty a

let rec const_value f (c : Ast.const) :
    [ `Word of int | `Ref of string * Scheme.ty ] =
  match c with
  | Ast.Cint n -> `Word (encode_const_int f n)
  | Ast.Csym s -> `Word (Emit.sym_item (scheme f) (Symtab.intern f.symtab s))
  | Ast.Clist [] -> `Word (Emit.nil_item (scheme f))
  | Ast.Clist (x :: rest) ->
      let car = const_value f x in
      let cdr = const_value f (Ast.Clist rest) in
      let b = f.ctx.Emit.b in
      Buf.data b (Buf.Align (scheme f).Scheme.obj_align);
      let lbl = fresh f "qp" in
      let emit_word ?label v =
        match v with
        | `Word w -> Buf.data ?label b (Buf.Word w)
        | `Ref (l, ty) -> Buf.data ?label b (Buf.Tagged (l, tagger f ty))
      in
      emit_word ~label:lbl car;
      emit_word cdr;
      `Ref (lbl, Scheme.Pair)

let load_const f rd (c : Ast.const) =
  match c with
  | Ast.Csym "nil" | Ast.Clist [] -> mv f rd Reg.rnil
  | _ -> (
      match const_value f c with
      | `Word w -> e_ f (Insn.Li (rd, w))
      | `Ref (lbl, ty) ->
          let b = f.ctx.Emit.b in
          let cell = fresh f "qc" in
          Buf.data ~label:cell b (Buf.Tagged (lbl, tagger f ty));
          e_ f (Insn.La (rd, cell));
          e_ f (Insn.Ld (Insn.Plain, rd, rd, 0)))

(* --- Allocation. --- *)

let alloc_pair f ~rcar ~rcdr ~rd ~scratch =
  let al = Annot.make Annot.Alloc in
  let retry = fresh f "cons" in
  let stub = fresh f "consgc" in
  label f retry;
  e_ ~annot:al f (Insn.Alui (Insn.Add, scratch, Reg.hp, 8));
  Emit.branch ~annot:al ~hint:Insn.Unlikely f.ctx Insn.Gt scratch Reg.hl stub;
  e_ f (Insn.St (Insn.Plain, Reg.hp, rcar, 0));
  e_ f (Insn.St (Insn.Plain, Reg.hp, rcdr, 4));
  Emit.insert_tag f.ctx ~ty:Scheme.Pair ~src:Reg.hp ~dst:rd ~scratch:Reg.v1;
  e_ ~annot:al f (Insn.Mv (Reg.hp, scratch));
  f.stubs <-
    (fun () ->
      label f stub;
      e_ ~annot:al f (Insn.Jal L.l_gc_entry);
      e_ ~annot:al f (Insn.J retry))
    :: f.stubs

(* --- Generic arithmetic. --- *)

let arith_insn = function
  | Tir.A_add -> Insn.Add
  | Tir.A_sub -> Insn.Sub
  | Tir.A_mul -> Insn.Mul
  | Tir.A_div -> Insn.Div
  | Tir.A_rem -> Insn.Rem

let fallback_label = function
  | Tir.A_add -> L.l_gadd_entry
  | Tir.A_sub -> L.l_gsub_entry
  | Tir.A_mul -> L.l_gmul_entry
  | Tir.A_div -> L.l_gdiv_entry
  | Tir.A_rem -> L.l_grem_entry

let arith_stub f ~kind ~ra_ ~rb ~rd ~join =
  let ga = Annot.make ~checking:true Annot.Garith in
  let stub = fresh f "gar" in
  f.stubs <-
    (fun () ->
      label f stub;
      e_ ~annot:ga f (Insn.Mv (Reg.a0, ra_));
      e_ ~annot:ga f (Insn.Mv (Reg.a1, rb));
      e_ ~annot:ga f (Insn.Jal (fallback_label kind));
      e_ ~annot:ga f (Insn.Mv (rd, Reg.v0));
      e_ ~annot:ga f (Insn.J join))
    :: f.stubs;
  stub

let emit_arith f ~kind ~ra_ ~rb ~rd ~a_int ~b_int =
  let s = scheme f in
  let sup = support f in
  let rm = Annot.make Annot.Remove in
  let ins = Annot.make Annot.Insert in
  let raw_op dst =
    match kind with
    | Tir.A_add | Tir.A_sub -> e_ f (Insn.Alu (arith_insn kind, dst, ra_, rb))
    | Tir.A_mul ->
        if Scheme.is_low s then begin
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, Reg.v1, ra_, 2));
          e_ f (Insn.Alu (Insn.Mul, dst, Reg.v1, rb))
        end
        else e_ f (Insn.Alu (Insn.Mul, dst, ra_, rb))
    | Tir.A_div | Tir.A_rem ->
        if Scheme.is_low s then begin
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, Reg.v1, ra_, 2));
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, dst, rb, 2));
          e_ f (Insn.Alu (arith_insn kind, dst, Reg.v1, dst));
          e_ ~annot:ins f (Insn.Alui (Insn.Sll, dst, dst, 2))
        end
        else e_ f (Insn.Alu (arith_insn kind, dst, ra_, rb))
  in
  if not (checking f) then raw_op rd
  else if sup.Support.hw_generic_arith && (kind = Tir.A_add || kind = Tir.A_sub)
  then
    e_ f
      (match kind with
      | Tir.A_add -> Insn.Add_gen (rd, ra_, rb)
      | _ -> Insn.Sub_gen (rd, ra_, rb))
  else begin
    let join = fresh f "garj" in
    let slow = arith_stub f ~kind ~ra_ ~rb ~rd ~join in
    (if not sup.Support.int_biased_arith then
       let ga = Annot.make ~checking:true Annot.Garith in
       e_ ~annot:ga f (Insn.J slow)
     else if s.Scheme.layout = Scheme.High6 && kind = Tir.A_add then begin
       raw_op Reg.v0;
       Emit.validity_check ~checking:true f.ctx ~result:Reg.v0 ~scratch:Reg.v1
         ~fail:slow;
       mv f rd Reg.v0
     end
     else begin
       if not a_int then
         Emit.int_test ~checking:true ~hint:Insn.Slow_path f.ctx
           ~src_kind:Annot.Arith_op ~sense:`Is_not ra_ ~scratch:Reg.v1 slow;
       if not b_int then
         Emit.int_test ~checking:true ~hint:Insn.Slow_path f.ctx
           ~src_kind:Annot.Arith_op ~sense:`Is_not rb ~scratch:Reg.v1 slow;
       (match kind with
       | Tir.A_div | Tir.A_rem ->
           Emit.branch
             ~annot:(Annot.make ~checking:true (Annot.Check Annot.Arith_op))
             ~hint:Insn.Unlikely f.ctx Insn.Eq rb Reg.zero L.l_err_arith
       | Tir.A_add | Tir.A_sub | Tir.A_mul -> ());
       raw_op Reg.v0;
       (match kind with
       | Tir.A_add | Tir.A_sub ->
           Emit.overflow_check ~checking:true ~subtraction:(kind = Tir.A_sub)
             f.ctx ~result:Reg.v0 ~op_a:ra_ ~op_b:rb ~scratch:Reg.v1 ~fail:slow
             ~resumable:true
       | Tir.A_mul ->
           (* [v1] still holds the untagged multiplicand from [raw_op]
              on the low schemes; high-scheme items are their values. *)
           Emit.mul_overflow_check ~checking:true ~resumable:true f.ctx
             ~result:Reg.v0
             ~val_a:(if Scheme.is_low s then Reg.v1 else ra_)
             ~item_b:rb ~scratch:Reg.v1 ~fail:slow
       | Tir.A_div | Tir.A_rem -> ());
       mv f rd Reg.v0
     end);
    label f join
  end

(* --- Per-operation selection. --- *)

let exec_op f (op : Tir.op) =
  match op with
  | Tir.Label l -> label f l
  | Tir.Jump l -> e_ f (Insn.J l)
  | Tir.Branch { cond; ra; rb; hint; target } ->
      Emit.branch ~hint f.ctx cond ra rb target
  | Tir.Tybranch { v; ty; sense; target } ->
      Emit.check_type f.ctx ~src_kind:Annot.User_pred ~ty ~sense v
        ~scratch:Reg.v1 target
  | Tir.Intbranch { v; sense; target } ->
      Emit.int_test f.ctx ~src_kind:Annot.User_pred ~sense v ~scratch:Reg.v1
        target
  | Tir.Constop { dst; c } -> load_const f dst c
  | Tir.Consttrue { dst } -> e_ f (Insn.Li (dst, Emit.t_item (scheme f)))
  | Tir.Loadvar { dst; src } -> load_loc f dst src
  | Tir.Storevar { dst; src } -> store_loc f dst ~src
  | Tir.Bind { dst; src } -> store_loc f dst ~src
  | Tir.Checkty { v; ty; kind; unless_parallel } ->
      if
        checking f
        && not (unless_parallel && Emit.parallel_covers f.ctx ty)
      then
        Emit.check_type ~checking:true ~hint:Insn.Unlikely f.ctx
          ~src_kind:kind ~ty ~sense:`Is_not v ~scratch:Reg.v1 L.l_err_type
  | Tir.Checkint { v; kind } ->
      if checking f then
        Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx ~src_kind:kind
          ~sense:`Is_not v ~scratch:Reg.v1 L.l_err_type
  | Tir.Fieldload { r; ty; off; result_int = _ } ->
      let parallel = Emit.parallel_covers f.ctx ty in
      let acc = Emit.object_access f.ctx ~ty ~parallel r ~scratch:Reg.v1 in
      Emit.load f.ctx acc ~dst:r ~off
  | Tir.Fieldstore { robj; rval; ty; off; result_obj } ->
      let parallel = Emit.parallel_covers f.ctx ty in
      let acc = Emit.object_access f.ctx ~ty ~parallel robj ~scratch:Reg.v1 in
      Emit.store f.ctx acc ~src:rval ~off;
      if not result_obj then mv f robj rval
  | Tir.Consop { rd; rcdr; scratch } ->
      alloc_pair f ~rcar:rd ~rcdr ~rd ~scratch
  | Tir.Arith { kind; ra; rb; a_int; b_int } ->
      emit_arith f ~kind ~ra_:ra ~rb ~rd:ra ~a_int ~b_int
  | Tir.Logic { aluop; ra; rb } -> e_ f (Insn.Alu (aluop, ra, ra, rb))
  | Tir.Mkvect { r } ->
      mv f Reg.a0 r;
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_mkvect);
      mv f r Reg.v0
  | Tir.Makebox { r } ->
      mv f Reg.a0 r;
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_makebox);
      mv f r Reg.v0
  | Tir.Vecref { rv; ri; relt; scratch; store } ->
      let s = scheme f in
      let chk = checking f in
      let parallel = Emit.parallel_covers f.ctx Scheme.Vector in
      let acc =
        Emit.object_access f.ctx ~ty:Scheme.Vector ~parallel rv ~scratch
      in
      if chk then begin
        let ck = Annot.make ~checking:true (Annot.Check Annot.Vector_op) in
        Emit.load ~annot:ck f.ctx acc ~dst:Reg.v1 ~off:L.obj_off_length;
        e_ ~annot:ck f (Insn.Alu (Insn.Sltu, Reg.v1, ri, Reg.v1));
        Emit.branch ~annot:ck ~hint:Insn.Unlikely f.ctx Insn.Eq Reg.v1
          Reg.zero L.l_err_bounds
      end;
      let scaled =
        if Scheme.is_low s then ri
        else begin
          e_ f (Insn.Alui (Insn.Sll, Reg.v1, ri, 2));
          Reg.v1
        end
      in
      e_ f (Insn.Alu (Insn.Add, Reg.v1, acc.Emit.base, scaled));
      let acc_idx =
        if parallel && Scheme.is_low s then
          {
            Emit.mode = Insn.Plain;
            base = Reg.v1;
            corr = Scheme.offset_correction s Scheme.Vector;
          }
        else { acc with Emit.base = Reg.v1 }
      in
      if store then begin
        Emit.store f.ctx acc_idx ~src:relt ~off:L.obj_off_elems;
        mv f rv relt
      end
      else Emit.load f.ctx acc_idx ~dst:rv ~off:L.obj_off_elems
  | Tir.Gccount { r } ->
      e_ f (Insn.La (r, L.l_gc_count));
      e_ f (Insn.Ld (Insn.Plain, r, r, 0));
      if Scheme.is_low (scheme f) then e_ f (Insn.Alui (Insn.Sll, r, r, 2))
  | Tir.Reclaim { r } ->
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_gc_entry);
      mv f r Reg.rnil
  | Tir.Traperror -> e_ f (Insn.Trap 6)
  | Tir.Calluser { name; base; nargs; saves } ->
      spill_for_call f ~live_temps:base ~saves;
      for i = 0 to nargs - 1 do
        mv f (Reg.a0 + i) (Reg.temp (base + i))
      done;
      e_ f (Insn.Jal (L.fn_label name));
      mv f (Reg.temp base) Reg.v0;
      reload_after_call f ~live_temps:base ~saves
  | Tir.Funcall { base; nargs; saves } ->
      let rf = Reg.temp base in
      let acc =
        Emit.object_access f.ctx ~ty:Scheme.Symbol
          ~parallel:(Emit.parallel_covers f.ctx Scheme.Symbol) rf
          ~scratch:Reg.v1
      in
      let chk = Annot.make ~checking:true (Annot.Check Annot.Symbol_op) in
      (* The name-id word (arity in its high bits) must be read before
         the function cell: the access base may be the scratch [v1]. *)
      if checking f then
        Emit.load ~annot:chk f.ctx acc ~dst:Reg.v0 ~off:L.sym_off_name;
      Emit.load f.ctx acc ~dst:Reg.v1 ~off:L.sym_off_function;
      if checking f then begin
        Emit.branch ~annot:chk ~hint:Insn.Unlikely f.ctx Insn.Eq Reg.v1
          Reg.zero L.l_err_undef;
        e_ ~annot:chk f
          (Insn.Alui (Insn.Srl, Reg.v0, Reg.v0, L.sym_arity_shift));
        Emit.branch_i ~annot:chk ~hint:Insn.Unlikely f.ctx Insn.Ne Reg.v0
          nargs L.l_err_arity
      end;
      spill_for_call f ~live_temps:base ~saves;
      for i = 0 to nargs - 1 do
        mv f (Reg.a0 + i) (Reg.temp (base + 1 + i))
      done;
      e_ f (Insn.Jalr Reg.v1);
      mv f (Reg.temp base) Reg.v0;
      reload_after_call f ~live_temps:base ~saves

(* --- Function selection. --- *)

let fn (ctx : Emit.ctx) symtab (tf : Tir.fn) =
  let f = { ctx; symtab; stubs = [] } in
  label f (L.fn_label tf.Tir.f_name);
  e_ f (Insn.Alui (Insn.Add, Reg.sp, Reg.sp, -tf.Tir.f_frame_bytes));
  e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.ra, Tir.off_ra));
  List.iteri
    (fun i loc ->
      match loc with
      | Tir.Lreg (r, _) -> mv f r (Reg.a0 + i)
      | Tir.Lslot slot -> e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.a0 + i, slot))
      | Tir.Lglobal _ -> assert false)
    tf.Tir.f_params;
  List.iter (fun op -> exec_op f op) tf.Tir.f_ops;
  mv f Reg.v0 (Reg.temp 0);
  e_ f (Insn.Ld (Insn.Plain, Reg.ra, Reg.sp, Tir.off_ra));
  e_ f (Insn.Alui (Insn.Add, Reg.sp, Reg.sp, tf.Tir.f_frame_bytes));
  e_ f (Insn.Jr Reg.ra);
  List.iter (fun emit_stub -> emit_stub ()) (List.rev f.stubs)
