(** Lowering: core AST to the typed tag-operation IR ({!Tir}).

    This pass owns every scheme-agnostic shape decision the monolithic
    generator ({!Codegen}) makes — expression-temporary assignment,
    register-cached locals, frame slots, control-flow labels, literal
    exemptions — and none of the scheme x support instruction
    sequences, which belong to {!Select}.  It is a faithful
    transliteration of {!Codegen.compile_def}: with optimization off,
    [Select.fn (Lower.def ...)] reproduces the monolithic output byte
    for byte (modulo generated label names, which {!Tagsim_asm.Image.equal}
    ignores).

    Symbols are interned here, in the same order the monolithic
    generator interns them while emitting, so the symbol-table
    evolution (and hence every baked-in symbol index) is identical. *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg
module Scheme = Tagsim_tags.Scheme
module Ast = Tagsim_lisp.Ast

let errorf fmt = Fmt.kstr (fun s -> raise (Codegen.Error s)) fmt

let max_args = Codegen.max_args
let n_temp_pool = Reg.n_temps
let n_reg_locals = 3

type st = {
  symtab : Symtab.t;
  funcs : (string, int) Hashtbl.t; (* user function -> arity *)
  fname : string;
  mutable env : (string * Tir.loc) list;
  mutable next_slot : int; (* next frame slot byte offset *)
  mutable reg_locals : int; (* how many pool-top registers are in use *)
  mutable next_fresh : int;
  mutable ops : Tir.op list; (* reversed *)
}

let emit st op = st.ops <- op :: st.ops

(* Local labels use lowering-private prefixes (disjoint from every
   prefix {!Select} and {!Tagsim_runtime.Emit} generate through
   [Buf.fresh]), so a unit's label set stays collision-free. *)
let fresh st p =
  let n = st.next_fresh in
  st.next_fresh <- n + 1;
  p ^ "$" ^ string_of_int n

(* Expression temporaries grow from t0 upward; register-cached locals
   are allocated from the top of the same pool downward. *)
let temp st d =
  if d >= n_temp_pool - st.reg_locals then
    errorf
      "expression too deep in %s (more than %d live temporaries); \
       restructure with let"
      st.fname
      (n_temp_pool - st.reg_locals)
  else Reg.temp d

let check_spillable st d =
  if d > n_temp_pool then
    errorf "call at expression depth %d in %s exceeds the spill area" d
      st.fname

(* Upper bound on the number of local slots a function needs (must match
   the monolithic generator's count exactly: it sizes the frame). *)
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

let lookup st v = List.assoc_opt v st.env

(* Resolve a variable; globals are interned here so the symbol table
   evolves exactly as under the monolithic generator. *)
let var_loc st v =
  match lookup st v with
  | Some l -> l
  | None ->
      ignore (Symtab.intern st.symtab v);
      Tir.Lglobal v

(* Replicate the intern effect of the monolithic generator's
   [const_value] walk (car before cdr, i.e. list order), including the
   top-level nil shortcut that interns nothing. *)
let intern_const st (c : Ast.const) =
  match c with
  | Ast.Csym "nil" | Ast.Clist [] -> ()
  | c ->
      let rec walk = function
        | Ast.Cint _ -> ()
        | Ast.Csym s -> ignore (Symtab.intern st.symtab s)
        | Ast.Clist l -> List.iter walk l
      in
      walk c

(* Innermost binding of each cached register (shadowed bindings of the
   same register must not be spilled twice at calls). *)
let active_reg_locals st =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (_, l) ->
      match l with
      | Tir.Lreg (r, home) when not (Hashtbl.mem seen r) ->
          Hashtbl.replace seen r ();
          Some (r, home)
      | Tir.Lreg _ | Tir.Lslot _ | Tir.Lglobal _ -> None)
    st.env

let truthy (c : Ast.const) =
  match c with Ast.Csym "nil" | Ast.Clist [] -> false | _ -> true

let type_pred = function
  | "pairp" -> Some (`Ty Scheme.Pair)
  | "atom" -> Some `Atom
  | "symbolp" -> Some (`Ty Scheme.Symbol)
  | "vectorp" -> Some (`Ty Scheme.Vector)
  | "boxp" -> Some (`Ty Scheme.Boxnum)
  | "numberp" -> Some `Number
  | _ -> None

let comparison = function
  | "lessp" -> Some Insn.Lt
  | "greaterp" -> Some Insn.Gt
  | "leq" -> Some Insn.Le
  | "geq" -> Some Insn.Ge
  | _ -> None

let known_int = function Ast.Const (Ast.Cint _) -> true | _ -> false

let rec eval st d (e : Ast.expr) : unit =
  match e with
  | Ast.Const c ->
      let dst = temp st d in
      intern_const st c;
      emit st (Tir.Constop { dst; c })
  | Ast.Var v ->
      let dst = temp st d in
      let src = var_loc st v in
      emit st (Tir.Loadvar { dst; src })
  | Ast.Setq (v, e) ->
      eval st d e;
      let src = temp st d in
      emit st (Tir.Storevar { dst = var_loc st v; src })
  | Ast.Progn [] ->
      let dst = temp st d in
      emit st (Tir.Constop { dst; c = Ast.Csym "nil" })
  | Ast.Progn es ->
      let rec go = function
        | [] -> assert false
        | [ last ] -> eval st d last
        | e :: rest ->
            eval st d e;
            go rest
      in
      go es
  | Ast.If (c, a, b) ->
      let lt = fresh st "ift" and lf = fresh st "iff" and le = fresh st "ife" in
      eval_test st d c ~ltrue:lt ~lfalse:lf ~next:lt;
      emit st (Tir.Label lt);
      eval st d a;
      emit st (Tir.Jump le);
      emit st (Tir.Label lf);
      eval st d b;
      emit st (Tir.Label le)
  | Ast.While (c, body) ->
      let lbody = fresh st "wb"
      and ltest = fresh st "wt"
      and lend = fresh st "we" in
      emit st (Tir.Jump ltest);
      emit st (Tir.Label lbody);
      List.iter (fun e -> eval st d e) body;
      emit st (Tir.Label ltest);
      eval_test ~likely:true st d c ~ltrue:lbody ~lfalse:lend ~next:lend;
      emit st (Tir.Label lend);
      let dst = temp st d in
      emit st (Tir.Constop { dst; c = Ast.Csym "nil" })
  | Ast.Let (binds, body) ->
      let saved_env = st.env and saved_regs = st.reg_locals in
      List.iter
        (fun (v, init) ->
          eval st d init;
          let loc =
            let slot = st.next_slot in
            st.next_slot <- st.next_slot + 4;
            let candidate = n_temp_pool - 1 - st.reg_locals in
            if st.reg_locals < n_reg_locals && candidate > d then begin
              let r = Reg.temp candidate in
              st.reg_locals <- st.reg_locals + 1;
              Tir.Lreg (r, slot)
            end
            else Tir.Lslot slot
          in
          emit st (Tir.Bind { dst = loc; src = temp st d });
          st.env <- (v, loc) :: st.env)
        binds;
      List.iter
        (fun e -> eval st d e)
        (match body with [] -> [ Ast.nil ] | b -> b);
      st.env <- saved_env;
      st.reg_locals <- saved_regs
  | Ast.Funcall (fe, args) ->
      if List.length args > max_args then
        errorf "funcall with more than %d arguments" max_args;
      eval st d fe;
      List.iteri (fun i a -> eval st (d + 1 + i) a) args;
      check_spillable st d;
      let rf = temp st d in
      emit st
        (Tir.Checkty
           {
             v = rf;
             ty = Scheme.Symbol;
             kind = Annot.Symbol_op;
             unless_parallel = false;
           });
      emit st
        (Tir.Funcall
           {
             base = d;
             nargs = List.length args;
             saves = active_reg_locals st;
           })
  | Ast.Call (name, args) -> call_or_prim st d name args

and call_user st d name args =
  (match Hashtbl.find_opt st.funcs name with
  | None -> errorf "undefined function %s (called from %s)" name st.fname
  | Some arity ->
      if arity <> List.length args then
        errorf "%s expects %d arguments, got %d (in %s)" name arity
          (List.length args) st.fname);
  if List.length args > max_args then
    errorf "%s: more than %d arguments" name max_args;
  check_spillable st d;
  List.iteri (fun i a -> eval st (d + i) a) args;
  ignore (temp st d) (* the result move targets [temp d] *);
  emit st
    (Tir.Calluser
       {
         name;
         base = d;
         nargs = List.length args;
         saves = active_reg_locals st;
       })

and boolean_result st d test =
  let lt = fresh st "bt" and lf = fresh st "bf" and le = fresh st "be" in
  test ~ltrue:lt ~lfalse:lf ~next:lt;
  emit st (Tir.Label lt);
  let dst = temp st d in
  emit st (Tir.Consttrue { dst });
  emit st (Tir.Jump le);
  emit st (Tir.Label lf);
  emit st (Tir.Constop { dst; c = Ast.Csym "nil" });
  emit st (Tir.Label le)

and call_or_prim st d name args =
  let rd = temp st d in
  let unary () =
    match args with
    | [ a ] -> eval st d a
    | _ -> errorf "%s expects one argument" name
  in
  let binary () =
    match args with
    | [ a; b ] ->
        eval st d a;
        eval st (d + 1) b
    | _ -> errorf "%s expects two arguments" name
  in
  let ternary () =
    match args with
    | [ a; b; c ] ->
        eval st d a;
        eval st (d + 1) b;
        eval st (d + 2) c
    | _ -> errorf "%s expects three arguments" name
  in
  let field_load ~ty ~src_kind ~off ~result_int =
    unary ();
    emit st
      (Tir.Checkty { v = rd; ty; kind = src_kind; unless_parallel = true });
    emit st (Tir.Fieldload { r = rd; ty; off; result_int })
  in
  let field_store ~ty ~src_kind ~off ~result_obj =
    binary ();
    emit st
      (Tir.Checkty { v = rd; ty; kind = src_kind; unless_parallel = true });
    emit st
      (Tir.Fieldstore
         { robj = rd; rval = temp st (d + 1); ty; off; result_obj })
  in
  match (name, args) with
  | "car", _ ->
      field_load ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:0
        ~result_int:false
  | "cdr", _ ->
      field_load ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:4
        ~result_int:false
  | "rplaca", _ ->
      field_store ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:0
        ~result_obj:true
  | "rplacd", _ ->
      field_store ~ty:Scheme.Pair ~src_kind:Annot.List_op ~off:4
        ~result_obj:true
  | "cons", _ ->
      binary ();
      emit st
        (Tir.Consop { rd; rcdr = temp st (d + 1); scratch = temp st (d + 2) })
  | "plist", _ ->
      field_load ~ty:Scheme.Symbol ~src_kind:Annot.Symbol_op
        ~off:Tagsim_runtime.Layout.sym_off_plist ~result_int:false
  | "setplist", _ ->
      field_store ~ty:Scheme.Symbol ~src_kind:Annot.Symbol_op
        ~off:Tagsim_runtime.Layout.sym_off_plist ~result_obj:false
  | "unbox", _ ->
      field_load ~ty:Scheme.Boxnum ~src_kind:Annot.Arith_op
        ~off:Tagsim_runtime.Layout.obj_off_length ~result_int:true
  | ("plus2" | "difference2" | "times2" | "quotient" | "remainder"), _ ->
      binary ();
      let kind =
        match name with
        | "plus2" -> Tir.A_add
        | "difference2" -> Tir.A_sub
        | "times2" -> Tir.A_mul
        | "quotient" -> Tir.A_div
        | _ -> Tir.A_rem
      in
      let a_int, b_int =
        match args with
        | [ a; b ] -> (known_int a, known_int b)
        | _ -> (false, false)
      in
      emit st
        (Tir.Arith { kind; ra = rd; rb = temp st (d + 1); a_int; b_int })
  | ("land2" | "lor2" | "lxor2"), _ ->
      binary ();
      emit st (Tir.Checkint { v = rd; kind = Annot.Arith_op });
      emit st (Tir.Checkint { v = temp st (d + 1); kind = Annot.Arith_op });
      let aluop =
        match name with
        | "land2" -> Insn.And
        | "lor2" -> Insn.Or
        | _ -> Insn.Xor
      in
      emit st (Tir.Logic { aluop; ra = rd; rb = temp st (d + 1) })
  | "mkvect", _ ->
      unary ();
      emit st (Tir.Mkvect { r = rd })
  | "makebox", _ ->
      unary ();
      emit st (Tir.Checkint { v = rd; kind = Annot.Arith_op });
      emit st (Tir.Makebox { r = rd })
  | "getv", _ ->
      binary ();
      let idx_int =
        match args with [ _; Ast.Const (Ast.Cint _) ] -> true | _ -> false
      in
      vector_access st d ~store:false ~idx_int
  | "putv", _ ->
      ternary ();
      let idx_int =
        match args with
        | [ _; Ast.Const (Ast.Cint _); _ ] -> true
        | _ -> false
      in
      vector_access st d ~store:true ~idx_int
  | "vlen", _ ->
      field_load ~ty:Scheme.Vector ~src_kind:Annot.Vector_op
        ~off:Tagsim_runtime.Layout.obj_off_length ~result_int:true
  | "reclaim", [] -> emit st (Tir.Reclaim { r = rd })
  | "error", [] -> emit st Tir.Traperror
  | "gccount", [] -> emit st (Tir.Gccount { r = rd })
  | ( ( "eq" | "null" | "pairp" | "atom" | "symbolp" | "vectorp" | "boxp"
      | "numberp" | "lessp" | "greaterp" | "leq" | "geq" | "eqn" ),
      _ ) ->
      (* [eval_test] hands a wrong-arity predicate back to [eval]. *)
      let arity = if type_pred name <> None || name = "null" then 1 else 2 in
      if List.length args <> arity then
        errorf "%s expects %d arguments" name arity;
      boolean_result st d (fun ~ltrue ~lfalse ~next ->
          eval_test st d (Ast.Call (name, args)) ~ltrue ~lfalse ~next)
  | _, _ -> call_user st d name args

and vector_access st d ~store ~idx_int =
  let rv = temp st d and ri = temp st (d + 1) in
  (* The masked base must survive the bounds check, so it gets its own
     temporary. *)
  let base_scratch = temp st (d + if store then 3 else 2) in
  emit st
    (Tir.Checkty
       {
         v = rv;
         ty = Scheme.Vector;
         kind = Annot.Vector_op;
         unless_parallel = true;
       });
  if not idx_int then
    emit st (Tir.Checkint { v = ri; kind = Annot.Vector_op });
  emit st
    (Tir.Vecref
       {
         rv;
         ri;
         relt = (if store then temp st (d + 2) else 0);
         scratch = base_scratch;
         store;
       })

and eval_test ?(likely = false) st d (e : Ast.expr) ~ltrue ~lfalse ~next =
  let hint = if likely then Insn.Likely else Insn.No_hint in
  let finish_jump target = if target <> next then emit st (Tir.Jump target) in
  let finish ~branch_true ~branch_false =
    if next = lfalse then branch_true ()
    else if next = ltrue then branch_false ()
    else begin
      branch_true ();
      emit st (Tir.Jump lfalse)
    end
  in
  let user_branch cond ra rb =
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
      ~branch_true:(fun () ->
        emit st (Tir.Branch { cond; ra; rb; hint; target = ltrue }))
      ~branch_false:(fun () ->
        emit st (Tir.Branch { cond = neg; ra; rb; hint; target = lfalse }))
  in
  match e with
  | Ast.Const c -> finish_jump (if truthy c then ltrue else lfalse)
  | Ast.If (c, a, b) ->
      let la = fresh st "tta" and lb = fresh st "ttb" in
      eval_test st d c ~ltrue:la ~lfalse:lb ~next:la;
      emit st (Tir.Label la);
      eval_test st d a ~ltrue ~lfalse ~next:lb;
      emit st (Tir.Label lb);
      eval_test st d b ~ltrue ~lfalse ~next
  | Ast.Call ("null", [ x ]) ->
      eval_test ~likely st d x ~ltrue:lfalse ~lfalse:ltrue ~next
  | Ast.Call (("eq" | "eqn"), [ a; b ]) ->
      eval st d a;
      eval st (d + 1) b;
      user_branch Insn.Eq (temp st d) (temp st (d + 1))
  | Ast.Call (p, [ x ]) when type_pred p <> None -> (
      eval st d x;
      let rx = temp st d in
      match type_pred p with
      | Some (`Ty ty) ->
          finish
            ~branch_true:(fun () ->
              emit st
                (Tir.Tybranch { v = rx; ty; sense = `Is; target = ltrue }))
            ~branch_false:(fun () ->
              emit st
                (Tir.Tybranch { v = rx; ty; sense = `Is_not; target = lfalse }))
      | Some `Atom ->
          finish
            ~branch_true:(fun () ->
              emit st
                (Tir.Tybranch
                   { v = rx; ty = Scheme.Pair; sense = `Is_not; target = ltrue }))
            ~branch_false:(fun () ->
              emit st
                (Tir.Tybranch
                   { v = rx; ty = Scheme.Pair; sense = `Is; target = lfalse }))
      | Some `Number ->
          emit st (Tir.Intbranch { v = rx; sense = `Is; target = ltrue });
          finish
            ~branch_true:(fun () ->
              emit st
                (Tir.Tybranch
                   { v = rx; ty = Scheme.Boxnum; sense = `Is; target = ltrue }))
            ~branch_false:(fun () ->
              emit st
                (Tir.Tybranch
                   {
                     v = rx;
                     ty = Scheme.Boxnum;
                     sense = `Is_not;
                     target = lfalse;
                   }))
      | None -> assert false)
  | Ast.Call (cmp, [ a; b ]) when comparison cmp <> None ->
      eval st d a;
      eval st (d + 1) b;
      if not (known_int a) then
        emit st (Tir.Checkint { v = temp st d; kind = Annot.Arith_op });
      if not (known_int b) then
        emit st (Tir.Checkint { v = temp st (d + 1); kind = Annot.Arith_op });
      let cond = Option.get (comparison cmp) in
      user_branch cond (temp st d) (temp st (d + 1))
  | Ast.Progn [] -> finish_jump lfalse
  | Ast.Progn es ->
      let rec go = function
        | [] -> assert false
        | [ last ] -> eval_test ~likely st d last ~ltrue ~lfalse ~next
        | e :: rest ->
            eval st d e;
            go rest
      in
      go es
  | Ast.Var _ | Ast.Setq _ | Ast.While _ | Ast.Let _ | Ast.Call _
  | Ast.Funcall _ ->
      eval st d e;
      user_branch Insn.Ne (temp st d) Reg.rnil

(* --- Function lowering. --- *)

let def symtab funcs (def : Ast.def) : Tir.fn =
  if List.length def.Ast.params > max_args then
    errorf "%s: more than %d parameters" def.Ast.name max_args;
  let nslots = List.length def.Ast.params + count_bindings def.Ast.body in
  let frame_bytes =
    (Tir.off_locals n_temp_pool + (4 * nslots) + 7) land lnot 7
  in
  let st =
    {
      symtab;
      funcs;
      fname = def.Ast.name;
      env = [];
      next_slot = Tir.off_locals n_temp_pool;
      reg_locals = 0;
      next_fresh = 0;
      ops = [];
    }
  in
  let params =
    List.map
      (fun p ->
        let slot = st.next_slot in
        st.next_slot <- st.next_slot + 4;
        let loc =
          if st.reg_locals < n_reg_locals then begin
            let r = Reg.temp (n_temp_pool - 1 - st.reg_locals) in
            st.reg_locals <- st.reg_locals + 1;
            Tir.Lreg (r, slot)
          end
          else Tir.Lslot slot
        in
        st.env <- (p, loc) :: st.env;
        loc)
      def.Ast.params
  in
  eval st 0 def.Ast.body;
  ignore (temp st 0) (* the epilogue moves [temp 0] to [v0] *);
  {
    Tir.f_name = def.Ast.name;
    f_frame_bytes = frame_bytes;
    f_params = params;
    f_ops = List.rev st.ops;
  }
