(** Code generation: core AST to annotated assembly.

    Compilation model (deliberately close to a period RISC Lisp compiler):

    - arguments arrive in [a0..a3] (at most four);
    - expression temporaries are [t0..t5], used as a stack; the first three
      live locals are cached in [t6..t8], the rest live in the frame;
    - all registers are caller-save: at a user call, live temporaries and
      cached locals are spilled to the frame and reloaded after (runtime
      routines preserve the temporaries, so calls to them do not spill);
    - every stack word is a tagged item or a code address (which looks like
      an integer), so the collector can scan frames blindly;
    - allocation is inline (bump-and-compare) with a per-site out-of-line
      stub that calls the collector and retries;
    - the failure path of integer-biased generic arithmetic is a per-site
      stub that calls the runtime fallback. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Buf = Tagsim_asm.Buf
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Emit = Tagsim_runtime.Emit
module L = Tagsim_runtime.Layout
module Ast = Tagsim_lisp.Ast

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let max_args = 4
let n_temp_pool = Reg.n_temps (* shared by expression temps and locals *)
let n_reg_locals = 3

type loc =
  | Lreg of Reg.t * int (* cached in a register; its frame spill home *)
  | Lslot of int (* frame byte offset *)

type fn = {
  ctx : Emit.ctx;
  symtab : Symtab.t;
  funcs : (string, int) Hashtbl.t; (* user function -> arity *)
  fname : string;
  mutable env : (string * loc) list;
  mutable next_slot : int; (* next frame slot byte offset *)
  frame_bytes : int;
  mutable reg_locals : int; (* how many of t6..t8 are in use *)
  mutable stubs : (unit -> unit) list; (* emitted after the body *)
}

(* Frame layout: [0] saved ra; then one spill slot per pool temporary;
   then the local slots. *)
let off_ra = 0
let off_temp_spill i = 4 + (4 * i)
let off_locals = 4 + (4 * n_temp_pool)

(* Upper bound on the number of local slots a function needs: parameters
   plus every let binding (register-cached locals keep their slot reserved
   as their spill home). *)
let rec count_bindings (e : Ast.expr) =
  match e with
  | Ast.Const _ | Ast.Var _ -> 0
  | Ast.If (c, a, b) -> count_bindings c + count_bindings a + count_bindings b
  | Ast.Progn es -> List.fold_left (fun n e -> n + count_bindings e) 0 es
  | Ast.Setq (_, e) -> count_bindings e
  | Ast.While (c, body) ->
      count_bindings c + List.fold_left (fun n e -> n + count_bindings e) 0 body
  | Ast.Let (binds, body) ->
      List.length binds
      + List.fold_left (fun n (_, e) -> n + count_bindings e) 0 binds
      + List.fold_left (fun n e -> n + count_bindings e) 0 body
  | Ast.Call (_, args) ->
      List.fold_left (fun n e -> n + count_bindings e) 0 args
  | Ast.Funcall (f, args) ->
      count_bindings f
      + List.fold_left (fun n e -> n + count_bindings e) 0 args

let e_ ?annot f insn = Emit.emit ?annot f.ctx insn
let fresh f p = Emit.fresh f.ctx p
let label f l = Emit.label f.ctx l
let scheme f = f.ctx.Emit.scheme
let support f = f.ctx.Emit.support
let checking f = (support f).Support.runtime_checking

let mv ?annot f rd rs = if rd <> rs then e_ ?annot f (Insn.Mv (rd, rs))

(* Expression temporaries grow from t0 upward; register-cached locals are
   allocated from the top of the same pool downward.  Deep expressions that
   would collide with an active cached local are a compile-time error
   (restructure the Lisp source with a let). *)
let temp f d =
  if d >= n_temp_pool - f.reg_locals then
    errorf
      "expression too deep in %s (more than %d live temporaries); \
       restructure with let"
      f.fname
      (n_temp_pool - f.reg_locals)
  else Reg.temp d

(* Every pool temporary has a spill slot, so any valid depth is
   spillable; kept as a guard against future layout changes. *)
let check_spillable f d =
  if d > n_temp_pool then
    errorf "call at expression depth %d in %s exceeds the spill area" d
      f.fname

(* --- Variable access. --- *)

let lookup f v = List.assoc_opt v f.env

let global_offset f v =
  let idx = Symtab.intern f.symtab v in
  idx * L.sym_cell_size

let load_var f d v =
  let rd = temp f d in
  match lookup f v with
  | Some (Lreg (r, _)) -> mv f rd r
  | Some (Lslot off) -> e_ f (Insn.Ld (Insn.Plain, rd, Reg.sp, off))
  | None ->
      (* Global: the symbol's value cell. *)
      e_ f (Insn.Ld (Insn.Plain, rd, Reg.stb, global_offset f v + L.sym_off_value))

let store_var f v ~src =
  match lookup f v with
  | Some (Lreg (r, _)) -> mv f r src
  | Some (Lslot off) -> e_ f (Insn.St (Insn.Plain, Reg.sp, src, off))
  | None ->
      e_ f (Insn.St (Insn.Plain, Reg.stb, src, global_offset f v + L.sym_off_value))

(* --- Spilling around user calls. --- *)

(* Innermost binding of each cached register (shadowed bindings of the
   same register must not be spilled twice). *)
let active_reg_locals f =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (_, l) ->
      match l with
      | Lreg (r, home) when not (Hashtbl.mem seen r) ->
          Hashtbl.replace seen r ();
          Some (r, home)
      | Lreg _ | Lslot _ -> None)
    f.env

let spill_for_call f ~live_temps =
  for i = 0 to live_temps - 1 do
    e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.temp i, off_temp_spill i))
  done;
  List.iter
    (fun (r, home) -> e_ f (Insn.St (Insn.Plain, Reg.sp, r, home)))
    (active_reg_locals f)

let reload_after_call f ~live_temps =
  for i = 0 to live_temps - 1 do
    e_ f (Insn.Ld (Insn.Plain, Reg.temp i, Reg.sp, off_temp_spill i))
  done;
  List.iter
    (fun (r, home) -> e_ f (Insn.Ld (Insn.Plain, r, Reg.sp, home)))
    (active_reg_locals f)

(* --- Constants. --- *)

let encode_const_int f n =
  let s = scheme f in
  if n < s.Scheme.int_min || n > s.Scheme.int_max then
    errorf "integer literal %d out of range for scheme %s" n s.Scheme.name;
  Scheme.encode_int s n

(* The tagged-datum transform for a pointer of type [ty] under the
   function's scheme. *)
let tagger f ty a = Scheme.encode_ptr (scheme f) ty a

(* Emit a quoted structure into static data; returns the item, either as a
   compile-time constant or as a data label to load through. *)
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

let load_const f d (c : Ast.const) =
  let rd = temp f d in
  match c with
  | Ast.Csym "nil" | Ast.Clist [] -> mv f rd Reg.rnil
  | _ -> (
      match const_value f c with
      | `Word w -> e_ f (Insn.Li (rd, w))
      | `Ref (lbl, ty) ->
          (* Load through a constant cell holding the tagged item. *)
          let b = f.ctx.Emit.b in
          let cell = fresh f "qc" in
          Buf.data ~label:cell b (Buf.Tagged (lbl, tagger f ty));
          e_ f (Insn.La (rd, cell));
          e_ f (Insn.Ld (Insn.Plain, rd, rd, 0)))

(* --- Allocation. --- *)

(* Inline cons: car in [rcar], cdr in [rcdr], result in [rd]; [scratch] is
   a free temp.  The GC stub is emitted out of line. *)
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

(* --- Generic arithmetic (Sections 2.2, 4, 6.2.2). --- *)

type arith_kind = A_add | A_sub | A_mul | A_div | A_rem

let arith_insn = function
  | A_add -> Insn.Add
  | A_sub -> Insn.Sub
  | A_mul -> Insn.Mul
  | A_div -> Insn.Div
  | A_rem -> Insn.Rem

let fallback_label = function
  | A_add -> L.l_gadd_entry
  | A_sub -> L.l_gsub_entry
  | A_mul -> L.l_gmul_entry
  | A_div -> L.l_gdiv_entry
  | A_rem -> L.l_grem_entry

(* Out-of-line call to the generic fallback; the runtime preserves the
   expression temporaries, so no spilling is needed. *)
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

(* Emit one generic arithmetic operation.  Operand registers [ra_]/[rb]
   must stay intact until all inline checks are done (the slow path needs
   them), so on checked paths the result is computed into [v0], with [v1]
   as the transient scratch, and moved to [rd] at the end.  This keeps the
   expression-temporary footprint at two registers per operation. *)
let emit_arith f ~kind ~ra_ ~rb ~rd ~a_int ~b_int =
  let s = scheme f in
  let sup = support f in
  let rm = Annot.make Annot.Remove in
  let ins = Annot.make Annot.Insert in
  (* Compute the raw operation into [dst], using [v1] as scratch. *)
  let raw_op dst =
    match kind with
    | A_add | A_sub -> e_ f (Insn.Alu (arith_insn kind, dst, ra_, rb))
    | A_mul ->
        if Scheme.is_low s then begin
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, Reg.v1, ra_, 2));
          e_ f (Insn.Alu (Insn.Mul, dst, Reg.v1, rb))
        end
        else e_ f (Insn.Alu (Insn.Mul, dst, ra_, rb))
    | A_div | A_rem ->
        if Scheme.is_low s then begin
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, Reg.v1, ra_, 2));
          e_ ~annot:rm f (Insn.Alui (Insn.Sra, dst, rb, 2));
          e_ f (Insn.Alu (arith_insn kind, dst, Reg.v1, dst));
          e_ ~annot:ins f (Insn.Alui (Insn.Sll, dst, dst, 2))
        end
        else e_ f (Insn.Alu (arith_insn kind, dst, ra_, rb))
  in
  if not (checking f) then raw_op rd
  else if sup.Support.hw_generic_arith && (kind = A_add || kind = A_sub) then
    (* Hardware generic arithmetic: single instruction, traps on non-int
       operands or overflow (Table 2 row 4). *)
    e_ f
      (match kind with
      | A_add -> Insn.Add_gen (rd, ra_, rb)
      | _ -> Insn.Sub_gen (rd, ra_, rb))
  else begin
    let join = fresh f "garj" in
    let slow = arith_stub f ~kind ~ra_ ~rb ~rd ~join in
    (if not sup.Support.int_biased_arith then
       (* Dispatch-first ablation (Section 6.2.2): always call the
          general routine. *)
       let ga = Annot.make ~checking:true Annot.Garith in
       e_ ~annot:ga f (Insn.J slow)
     else if s.Scheme.layout = Scheme.High6 && kind = A_add then begin
       (* Section 4.2: operate first, then a single validity check on the
          result covers both operand types and overflow.  This only works
          for addition — the paper's tag-assignment property is about tag
          *sums*; subtracting two identically-tagged pointers cancels the
          tags and forges a valid-looking integer, so subtraction keeps
          the standard operand tests.  Branches to the slow path are
          resumable: the scheduler must not speculate fall-through work
          into their slots. *)
       raw_op Reg.v0;
       Emit.validity_check ~checking:true f.ctx ~result:Reg.v0
         ~scratch:Reg.v1 ~fail:slow;
       mv f rd Reg.v0
     end
     else begin
       (* Operands the compiler knows to be integers (literals) need no
          run-time test — Section 3: checks removable from program
          context. *)
       if not a_int then
         Emit.int_test ~checking:true ~hint:Insn.Slow_path f.ctx
           ~src_kind:Annot.Arith_op ~sense:`Is_not ra_ ~scratch:Reg.v1 slow;
       if not b_int then
         Emit.int_test ~checking:true ~hint:Insn.Slow_path f.ctx
           ~src_kind:Annot.Arith_op ~sense:`Is_not rb ~scratch:Reg.v1 slow;
       (match kind with
       | A_div | A_rem ->
           (* Division by zero (the zero item is the word 0). *)
           Emit.branch
             ~annot:(Annot.make ~checking:true (Annot.Check Annot.Arith_op))
             ~hint:Insn.Unlikely f.ctx Insn.Eq rb Reg.zero L.l_err_arith
       | A_add | A_sub | A_mul -> ());
       raw_op Reg.v0;
       (match kind with
       | A_add | A_sub ->
           Emit.overflow_check ~checking:true ~subtraction:(kind = A_sub)
             f.ctx ~result:Reg.v0 ~op_a:ra_ ~op_b:rb ~scratch:Reg.v1
             ~fail:slow ~resumable:true
       | A_mul ->
           (* [v1] still holds the untagged multiplicand from [raw_op]
              on the low schemes; high-scheme items are their values. *)
           Emit.mul_overflow_check ~checking:true ~resumable:true f.ctx
             ~result:Reg.v0
             ~val_a:(if Scheme.is_low s then Reg.v1 else ra_)
             ~item_b:rb ~scratch:Reg.v1 ~fail:slow
       | A_div | A_rem -> ());
       mv f rd Reg.v0
     end);
    label f join
  end

(* --- Expression evaluation. --- *)

let truthy (c : Ast.const) = match c with Ast.Csym "nil" | Ast.Clist [] -> false | _ -> true

(* Type predicates usable directly in test position. *)
let type_pred = function
  | "pairp" -> Some (`Ty Scheme.Pair)
  | "atom" -> Some `Atom
  | "symbolp" -> Some (`Ty Scheme.Symbol)
  | "vectorp" -> Some (`Ty Scheme.Vector)
  | "boxp" -> Some (`Ty Scheme.Boxnum)
  | "numberp" -> Some `Number
  | _ -> None

(* [eqn] is deliberately absent: in PSL, eqn on fixnums is pointer
   equality (eq) and performs no type test. *)
let comparison = function
  | "lessp" -> Some Insn.Lt
  | "greaterp" -> Some Insn.Gt
  | "leq" -> Some Insn.Le
  | "geq" -> Some Insn.Ge
  | _ -> None

let rec eval f d (e : Ast.expr) : unit =
  match e with
  | Ast.Const c -> load_const f d c
  | Ast.Var v -> load_var f d v
  | Ast.Setq (v, e) ->
      eval f d e;
      store_var f v ~src:(temp f d)
  | Ast.Progn [] -> mv f (temp f d) Reg.rnil
  | Ast.Progn es ->
      let rec go = function
        | [] -> assert false
        | [ last ] -> eval f d last
        | e :: rest ->
            eval f d e;
            go rest
      in
      go es
  | Ast.If (c, a, b) ->
      let lt = fresh f "ift" and lf = fresh f "iff" and le = fresh f "ife" in
      eval_test f d c ~ltrue:lt ~lfalse:lf ~next:lt;
      label f lt;
      eval f d a;
      e_ f (Insn.J le);
      label f lf;
      eval f d b;
      label f le
  | Ast.While (c, body) ->
      (* test at the bottom: j Ltest; Lbody: ...; Ltest: c -> Lbody *)
      let lbody = fresh f "wb" and ltest = fresh f "wt" and lend = fresh f "we" in
      e_ f (Insn.J ltest);
      label f lbody;
      List.iter (fun e -> eval f d e) body;
      label f ltest;
      eval_test ~likely:true f d c ~ltrue:lbody ~lfalse:lend ~next:lend;
      label f lend;
      mv f (temp f d) Reg.rnil
  | Ast.Let (binds, body) ->
      let saved_env = f.env and saved_regs = f.reg_locals in
      List.iter
        (fun (v, init) ->
          eval f d init;
          let loc =
            let slot = f.next_slot in
            f.next_slot <- f.next_slot + 4;
            let candidate = n_temp_pool - 1 - f.reg_locals in
            if f.reg_locals < n_reg_locals && candidate > d then begin
              let r = Reg.temp candidate in
              f.reg_locals <- f.reg_locals + 1;
              Lreg (r, slot)
            end
            else Lslot slot
          in
          (match loc with
          | Lreg (r, _) -> mv f r (temp f d)
          | Lslot off -> e_ f (Insn.St (Insn.Plain, Reg.sp, temp f d, off)));
          f.env <- (v, loc) :: f.env)
        binds;
      List.iter (fun e -> eval f d e) (match body with [] -> [ Ast.nil ] | b -> b);
      (* Result of the last body form is in temp f d already. *)
      f.env <- saved_env;
      f.reg_locals <- saved_regs
  | Ast.Funcall (fe, args) ->
      if List.length args > max_args then
        errorf "funcall with more than %d arguments" max_args;
      eval f d fe;
      List.iteri (fun i a -> eval f (d + 1 + i) a) args;
      check_spillable f d;
      let rf = temp f d in
      (* Check that it is a symbol with a function. *)
      if checking f then
        Emit.check_type ~checking:true ~hint:Insn.Unlikely f.ctx
          ~src_kind:Annot.Symbol_op ~ty:Scheme.Symbol ~sense:`Is_not rf
          ~scratch:Reg.v1 L.l_err_type;
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
          (List.length args) L.l_err_arity
      end;
      spill_for_call f ~live_temps:d;
      List.iteri (fun i _ -> mv f (Reg.a0 + i) (Reg.temp (d + 1 + i))) args;
      e_ f (Insn.Jalr Reg.v1);
      mv f (temp f d) Reg.v0;
      reload_after_call f ~live_temps:d
  | Ast.Call (name, args) -> call_or_prim f d name args

and call_user f d name args =
  (match Hashtbl.find_opt f.funcs name with
  | None -> errorf "undefined function %s (called from %s)" name f.fname
  | Some arity ->
      if arity <> List.length args then
        errorf "%s expects %d arguments, got %d (in %s)" name arity
          (List.length args) f.fname);
  if List.length args > max_args then
    errorf "%s: more than %d arguments" name max_args;
  check_spillable f d;
  List.iteri (fun i a -> eval f (d + i) a) args;
  spill_for_call f ~live_temps:d;
  List.iteri (fun i _ -> mv f (Reg.a0 + i) (Reg.temp (d + i))) args;
  e_ f (Insn.Jal (L.fn_label name));
  mv f (temp f d) Reg.v0;
  reload_after_call f ~live_temps:d

(* Materialise a boolean result out of a test. *)
and boolean_result f d test =
  let lt = fresh f "bt" and lf = fresh f "bf" and le = fresh f "be" in
  test ~ltrue:lt ~lfalse:lf ~next:lt;
  label f lt;
  e_ f (Insn.Li (temp f d, Emit.t_item (scheme f)));
  e_ f (Insn.J le);
  label f lf;
  mv f (temp f d) Reg.rnil;
  label f le

and call_or_prim f d name args =
  let rd = temp f d in
  let s = scheme f in
  let chk = checking f in
  let unary () =
    match args with
    | [ a ] -> eval f d a
    | _ -> errorf "%s expects one argument" name
  in
  let binary () =
    match args with
    | [ a; b ] ->
        eval f d a;
        eval f (d + 1) b
    | _ -> errorf "%s expects two arguments" name
  in
  let ternary () =
    match args with
    | [ a; b; c ] ->
        eval f d a;
        eval f (d + 1) b;
        eval f (d + 2) c
    | _ -> errorf "%s expects three arguments" name
  in
  (* car/cdr-style access to a typed object. *)
  let field_load ~ty ~src_kind ~off =
    unary ();
    let parallel = Emit.parallel_covers f.ctx ty in
    if chk && not parallel then
      Emit.check_type ~checking:true ~hint:Insn.Unlikely f.ctx ~src_kind ~ty
        ~sense:`Is_not rd ~scratch:Reg.v1 L.l_err_type;
    let acc = Emit.object_access f.ctx ~ty ~parallel rd ~scratch:Reg.v1 in
    Emit.load f.ctx acc ~dst:rd ~off
  in
  let field_store ~ty ~src_kind ~off ~result_obj =
    binary ();
    let parallel = Emit.parallel_covers f.ctx ty in
    if chk && not parallel then
      Emit.check_type ~checking:true ~hint:Insn.Unlikely f.ctx ~src_kind ~ty
        ~sense:`Is_not rd ~scratch:Reg.v1 L.l_err_type;
    let acc = Emit.object_access f.ctx ~ty ~parallel rd ~scratch:Reg.v1 in
    Emit.store f.ctx acc ~src:(temp f (d + 1)) ~off;
    if not result_obj then mv f rd (temp f (d + 1))
  in
  match (name, args) with
  | "car", _ -> field_load ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:0
  | "cdr", _ -> field_load ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:4
  | "rplaca", _ ->
      field_store ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:0
        ~result_obj:true
  | "rplacd", _ ->
      field_store ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:4
        ~result_obj:true
  | "cons", _ ->
      binary ();
      alloc_pair f ~rcar:rd ~rcdr:(temp f (d + 1)) ~rd ~scratch:(temp f (d + 2))
  | "plist", _ ->
      field_load ~ty:Scheme.Symbol ~src_kind:Annot.Symbol_op
        ~off:L.sym_off_plist
  | "setplist", _ ->
      field_store ~ty:Scheme.Symbol ~src_kind:Annot.Symbol_op
        ~off:L.sym_off_plist ~result_obj:false
  | "unbox", _ ->
      field_load ~ty:Scheme.Boxnum ~src_kind:Annot.Arith_op
        ~off:L.obj_off_length
  | ("plus2" | "difference2" | "times2" | "quotient" | "remainder"), _ ->
      binary ();
      let kind =
        match name with
        | "plus2" -> A_add
        | "difference2" -> A_sub
        | "times2" -> A_mul
        | "quotient" -> A_div
        | _ -> A_rem
      in
      let known_int = function Ast.Const (Ast.Cint _) -> true | _ -> false in
      let a_int, b_int =
        match args with
        | [ a; b ] -> (known_int a, known_int b)
        | _ -> (false, false)
      in
      emit_arith f ~kind ~ra_:rd ~rb:(temp f (d + 1)) ~rd ~a_int ~b_int
  | ("land2" | "lor2" | "lxor2"), _ ->
      binary ();
      if chk then begin
        Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
          ~src_kind:Annot.Arith_op ~sense:`Is_not rd ~scratch:Reg.v1
          L.l_err_type;
        Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
          ~src_kind:Annot.Arith_op ~sense:`Is_not (temp f (d + 1)) ~scratch:Reg.v1
          L.l_err_type
      end;
      let op =
        match name with
        | "land2" -> Insn.And
        | "lor2" -> Insn.Or
        | _ -> Insn.Xor
      in
      e_ f (Insn.Alu (op, rd, rd, temp f (d + 1)))
  | "mkvect", _ ->
      unary ();
      mv f Reg.a0 rd;
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_mkvect);
      mv f rd Reg.v0
  | "makebox", _ ->
      unary ();
      if chk then
        Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
          ~src_kind:Annot.Arith_op ~sense:`Is_not rd ~scratch:Reg.v1
          L.l_err_type;
      mv f Reg.a0 rd;
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_makebox);
      mv f rd Reg.v0
  | "getv", _ ->
      binary ();
      let idx_int =
        match args with
        | [ _; Ast.Const (Ast.Cint _) ] -> true
        | _ -> false
      in
      vector_access f d ~store:false ~idx_int
  | "putv", _ ->
      ternary ();
      let idx_int =
        match args with
        | [ _; Ast.Const (Ast.Cint _); _ ] -> true
        | _ -> false
      in
      vector_access f d ~store:true ~idx_int
  | "vlen", _ ->
      field_load ~ty:Scheme.Vector ~src_kind:Annot.Vector_op
        ~off:L.obj_off_length
  | "reclaim", [] ->
      e_ ~annot:(Annot.make Annot.Alloc) f (Insn.Jal L.l_gc_entry);
      mv f rd Reg.rnil
  | "error", [] -> e_ f (Insn.Trap 6)
  | "gccount", [] ->
      (* Diagnostic: number of collections so far, as an integer item. *)
      e_ f (Insn.La (rd, L.l_gc_count));
      e_ f (Insn.Ld (Insn.Plain, rd, rd, 0));
      if Scheme.is_low s then e_ f (Insn.Alui (Insn.Sll, rd, rd, 2))
  | ("eq" | "null" | "pairp" | "atom" | "symbolp" | "vectorp" | "boxp"
    | "numberp" | "lessp" | "greaterp" | "leq" | "geq" | "eqn"), _ ->
      (* [eval_test] hands a wrong-arity predicate back to [eval]. *)
      let arity = if type_pred name <> None || name = "null" then 1 else 2 in
      if List.length args <> arity then
        errorf "%s expects %d arguments" name arity;
      boolean_result f d (fun ~ltrue ~lfalse ~next ->
          eval_test f d (Ast.Call (name, args)) ~ltrue ~lfalse ~next)
  | _, _ -> call_user f d name args

(* getv/putv.  Value in temp f d = vector, d+1 = index, (d+2 = element). *)
and vector_access f d ~store ~idx_int =
  let s = scheme f in
  let chk = checking f in
  let rv = temp f d and ri = temp f (d + 1) in
  (* The masked base must survive the bounds check, so it gets its own
     temporary; [v1] serves the transient roles. *)
  let base_scratch = temp f (d + if store then 3 else 2) in
  let parallel = Emit.parallel_covers f.ctx Scheme.Vector in
  if chk && not parallel then
    Emit.check_type ~checking:true ~hint:Insn.Unlikely f.ctx
      ~src_kind:Annot.Vector_op ~ty:Scheme.Vector ~sense:`Is_not rv
      ~scratch:Reg.v1 L.l_err_type;
  if chk && not idx_int then
    (* The indexing type must be legal (Section 2.2). *)
    Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
      ~src_kind:Annot.Vector_op ~sense:`Is_not ri ~scratch:Reg.v1 L.l_err_type;
  let acc =
    Emit.object_access f.ctx ~ty:Scheme.Vector ~parallel rv
      ~scratch:base_scratch
  in
  if chk then begin
    (* Bounds: unsigned compare of the encoded index against the encoded
       length (order-preserving in every scheme). *)
    let ck = Annot.make ~checking:true (Annot.Check Annot.Vector_op) in
    Emit.load ~annot:ck f.ctx acc ~dst:Reg.v1 ~off:L.obj_off_length;
    e_ ~annot:ck f (Insn.Alu (Insn.Sltu, Reg.v1, ri, Reg.v1));
    Emit.branch ~annot:ck ~hint:Insn.Unlikely f.ctx Insn.Eq Reg.v1 Reg.zero
      L.l_err_bounds
  end;
  (* Effective address: base + scaled index. *)
  let scaled =
    if Scheme.is_low s then ri (* encoded index is already 4n *)
    else begin
      e_ f (Insn.Alui (Insn.Sll, Reg.v1, ri, 2));
      Reg.v1
    end
  in
  e_ f (Insn.Alu (Insn.Add, Reg.v1, acc.Emit.base, scaled));
  (* Under the low-tag schemes an index addition can carry into the upper
     tag bit, so a parallel-checked *indexed* access would see a corrupted
     tag; the check already happened on the (unindexed) length load above,
     and the element access reverts to a plain offset-corrected one. *)
  let acc_idx =
    if parallel && Scheme.is_low s then
      {
        Emit.mode = Tagsim_mipsx.Insn.Plain;
        base = Reg.v1;
        corr = Scheme.offset_correction s Scheme.Vector;
      }
    else { acc with Emit.base = Reg.v1 }
  in
  if store then begin
    Emit.store f.ctx acc_idx ~src:(temp f (d + 2)) ~off:L.obj_off_elems;
    mv f (temp f d) (temp f (d + 2))
  end
  else Emit.load f.ctx acc_idx ~dst:(temp f d) ~off:L.obj_off_elems

(* Test-position evaluation: jump to [ltrue] when the expression is
   non-nil, [lfalse] otherwise.  [next] is the label that immediately
   follows the emitted code. *)
and eval_test ?(likely = false) f d (e : Ast.expr) ~ltrue ~lfalse ~next =
  let s = scheme f in
  let chk = checking f in
  let hint = if likely then Insn.Likely else Insn.No_hint in
  let finish_jump target = if target <> next then e_ f (Insn.J target) in
  (* Emit a leaf test so that control reaches [ltrue]/[lfalse] correctly
     given that [next] is the label emitted right after this code.
     [branch_true] must branch to [ltrue] when the test holds;
     [branch_false] must branch to [lfalse] when it does not. *)
  let finish ~branch_true ~branch_false =
    if next = lfalse then branch_true ()
    else if next = ltrue then branch_false ()
    else begin
      branch_true ();
      e_ f (Insn.J lfalse)
    end
  in
  let user_branch ?annot cond rs rt =
    let neg =
      match cond with
      | Insn.Eq -> Insn.Ne
      | Insn.Ne -> Insn.Eq
      | Insn.Lt -> Insn.Ge
      | Insn.Ge -> Insn.Lt
      | Insn.Gt -> Insn.Le
      | Insn.Le -> Insn.Gt
    in
    finish
      ~branch_true:(fun () -> Emit.branch ?annot ~hint f.ctx cond rs rt ltrue)
      ~branch_false:(fun () ->
        Emit.branch ?annot ~hint f.ctx neg rs rt lfalse)
  in
  match e with
  | Ast.Const c -> finish_jump (if truthy c then ltrue else lfalse)
  | Ast.If (c, a, b) ->
      let la = fresh f "tta" and lb = fresh f "ttb" in
      eval_test f d c ~ltrue:la ~lfalse:lb ~next:la;
      label f la;
      eval_test f d a ~ltrue ~lfalse ~next:lb;
      label f lb;
      eval_test f d b ~ltrue ~lfalse ~next
  | Ast.Call ("null", [ x ]) ->
      eval_test ~likely f d x ~ltrue:lfalse ~lfalse:ltrue ~next
  | Ast.Call (("eq" | "eqn"), [ a; b ]) ->
      (* eqn compiles as eq: PSL numeric equality on fixnums is pointer
         equality and is never type-checked. *)
      eval f d a;
      eval f (d + 1) b;
      user_branch Insn.Eq (temp f d) (temp f (d + 1))
  | Ast.Call (p, [ x ]) when type_pred p <> None -> (
      eval f d x;
      let rx = temp f d in
      match type_pred p with
      | Some (`Ty ty) ->
          finish
            ~branch_true:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred ~ty ~sense:`Is
                rx ~scratch:Reg.v1 ltrue)
            ~branch_false:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred ~ty
                ~sense:`Is_not rx ~scratch:Reg.v1 lfalse)
      | Some `Atom ->
          (* atom = not pairp *)
          finish
            ~branch_true:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred ~ty:Scheme.Pair
                ~sense:`Is_not rx ~scratch:Reg.v1 ltrue)
            ~branch_false:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred ~ty:Scheme.Pair
                ~sense:`Is rx ~scratch:Reg.v1 lfalse)
      | Some `Number ->
          (* Integer or boxnum (Section 3.4: the non-simple checks). *)
          Emit.int_test f.ctx ~src_kind:Annot.User_pred ~sense:`Is rx
            ~scratch:Reg.v1 ltrue;
          finish
            ~branch_true:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred
                ~ty:Scheme.Boxnum ~sense:`Is rx ~scratch:Reg.v1 ltrue)
            ~branch_false:(fun () ->
              Emit.check_type f.ctx ~src_kind:Annot.User_pred
                ~ty:Scheme.Boxnum ~sense:`Is_not rx ~scratch:Reg.v1 lfalse)
      | None -> assert false)
  | Ast.Call (cmp, [ a; b ]) when comparison cmp <> None ->
      eval f d a;
      eval f (d + 1) b;
      let known_int = function Ast.Const (Ast.Cint _) -> true | _ -> false in
      if chk then begin
        if not (known_int a) then
          Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
            ~src_kind:Annot.Arith_op ~sense:`Is_not (temp f d) ~scratch:Reg.v1
            L.l_err_type;
        if not (known_int b) then
          Emit.int_test ~checking:true ~hint:Insn.Unlikely f.ctx
            ~src_kind:Annot.Arith_op ~sense:`Is_not
            (temp f (d + 1))
            ~scratch:Reg.v1 L.l_err_type
      end;
      let cond = Option.get (comparison cmp) in
      user_branch cond (temp f d) (temp f (d + 1))
  | Ast.Progn [] -> finish_jump lfalse
  | Ast.Progn es ->
      let rec go = function
        | [] -> assert false
        | [ last ] -> eval_test ~likely f d last ~ltrue ~lfalse ~next
        | e :: rest ->
            eval f d e;
            go rest
      in
      go es
  | Ast.Var _ | Ast.Setq _ | Ast.While _ | Ast.Let _ | Ast.Call _
  | Ast.Funcall _ ->
      eval f d e;
      user_branch Insn.Ne (temp f d) Reg.rnil;
      ignore s

(* --- Function compilation. --- *)

let compile_def (ctx : Emit.ctx) symtab funcs (def : Ast.def) =
  if List.length def.Ast.params > max_args then
    errorf "%s: more than %d parameters" def.Ast.name max_args;
  let nslots = List.length def.Ast.params + count_bindings def.Ast.body in
  let frame_bytes = (off_locals + (4 * nslots) + 7) land lnot 7 in
  let f =
    {
      ctx;
      symtab;
      funcs;
      fname = def.Ast.name;
      env = [];
      next_slot = off_locals;
      frame_bytes;
      reg_locals = 0;
      stubs = [];
    }
  in
  label f (L.fn_label def.Ast.name);
  e_ f (Insn.Alui (Insn.Add, Reg.sp, Reg.sp, -frame_bytes));
  e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.ra, off_ra));
  (* Bind parameters: cache the first few in registers. *)
  List.iteri
    (fun i p ->
      let slot = f.next_slot in
      f.next_slot <- f.next_slot + 4;
      let loc =
        if f.reg_locals < n_reg_locals then begin
          let r = Reg.temp (n_temp_pool - 1 - f.reg_locals) in
          f.reg_locals <- f.reg_locals + 1;
          mv f r (Reg.a0 + i);
          Lreg (r, slot)
        end
        else begin
          e_ f (Insn.St (Insn.Plain, Reg.sp, Reg.a0 + i, slot));
          Lslot slot
        end
      in
      f.env <- (p, loc) :: f.env)
    def.Ast.params;
  eval f 0 def.Ast.body;
  mv f Reg.v0 (temp f 0);
  e_ f (Insn.Ld (Insn.Plain, Reg.ra, Reg.sp, off_ra));
  e_ f (Insn.Alui (Insn.Add, Reg.sp, Reg.sp, frame_bytes));
  e_ f (Insn.Jr Reg.ra);
  (* Out-of-line stubs (allocation retries, generic-arith slow paths). *)
  List.iter (fun emit_stub -> emit_stub ()) (List.rev f.stubs)
