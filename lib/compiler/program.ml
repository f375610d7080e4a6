(** Whole-program compilation, loading and execution.

    A program is a Lisp source defining [(de main () ...)] plus any number
    of helper functions.  It is compiled together with the prelude
    (unreachable functions pruned), linked with the runtime, assembled,
    loaded into a simulator instance and run; the decoded result and the
    cycle statistics come back. *)

module Insn = Tagsim_mipsx.Insn
module Reg = Tagsim_mipsx.Reg
module Buf = Tagsim_asm.Buf
module Sched = Tagsim_asm.Sched
module Image = Tagsim_asm.Image
module Link = Tagsim_asm.Link
module Metrics = Tagsim_metrics.Metrics
module Machine = Tagsim_sim.Machine
module Trace = Tagsim_sim.Trace
module Stats = Tagsim_sim.Stats
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Emit = Tagsim_runtime.Emit
module Rt = Tagsim_runtime.Rt
module L = Tagsim_runtime.Layout
module Ast = Tagsim_lisp.Ast
module Expand = Tagsim_lisp.Expand

exception Error of string

let errorf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Primitive names: calls to these never create a dependency on a user
   function. *)
let primitives =
  [
    "car"; "cdr"; "cons"; "rplaca"; "rplacd"; "plist"; "setplist"; "unbox";
    "plus2"; "difference2"; "times2"; "quotient"; "remainder"; "land2";
    "lor2"; "lxor2"; "mkvect"; "makebox"; "getv"; "putv"; "vlen"; "reclaim";
    "error"; "gccount"; "eq"; "null"; "pairp"; "atom"; "symbolp"; "vectorp";
    "boxp"; "numberp"; "lessp"; "greaterp"; "leq"; "geq"; "eqn";
  ]

let is_primitive name = List.mem name primitives

(* --- Reachability over the call graph (quoted symbols that name
   functions count as uses, because of funcall). --- *)

let rec expr_uses acc (e : Ast.expr) =
  match e with
  | Ast.Const c -> const_uses acc c
  | Ast.Var _ -> acc
  | Ast.If (a, b, c) -> expr_uses (expr_uses (expr_uses acc a) b) c
  | Ast.Progn es -> List.fold_left expr_uses acc es
  | Ast.Setq (_, e) -> expr_uses acc e
  | Ast.While (c, body) -> List.fold_left expr_uses (expr_uses acc c) body
  | Ast.Let (binds, body) ->
      let acc = List.fold_left (fun a (_, e) -> expr_uses a e) acc binds in
      List.fold_left expr_uses acc body
  | Ast.Call (name, args) ->
      let acc = if is_primitive name then acc else name :: acc in
      List.fold_left expr_uses acc args
  | Ast.Funcall (f, args) -> List.fold_left expr_uses (expr_uses acc f) args

and const_uses acc (c : Ast.const) =
  match c with
  | Ast.Cint _ -> acc
  | Ast.Csym s -> s :: acc
  | Ast.Clist l -> List.fold_left const_uses acc l

let reachable (defs : (string * Ast.def) list) ~roots =
  let table = Hashtbl.create 64 in
  List.iter (fun (n, d) -> Hashtbl.replace table n d) defs;
  let seen = Hashtbl.create 64 in
  let rec visit n =
    if (not (Hashtbl.mem seen n)) && Hashtbl.mem table n then begin
      Hashtbl.replace seen n ();
      let d = Hashtbl.find table n in
      List.iter visit (expr_uses [] d.Ast.body)
    end
  in
  List.iter visit roots;
  seen

(* --- Compiled program. --- *)

type meta = {
  procedures : int;
  source_lines : int; (* non-blank lines of retained source *)
  object_words : int;
  checks_eliminated : int;
      (* checks deleted by the optimizer across all functions (0 with
         optimization off or under the monolithic backend) *)
}

(** The config-independent front half of the pipeline: the pruned
    definition list that every tag-scheme/support configuration compiles
    from, plus the static metadata that does not depend on the emitted
    code.  Parsing, macro-expansion and reachability pruning see neither
    the scheme nor the support flags, so a front end is computed once per
    source and shared across the whole configuration matrix (the
    structures are immutable, hence safe to read from worker domains). *)
type frontend = {
  fe_retained : (string * Ast.def) list;
  fe_procedures : int;
  fe_source_lines : int; (* user + retained prelude, non-blank lines *)
}

type t = {
  image : Image.t;
  scheme : Scheme.t;
  support : Support.t;
  symtab : Symtab.t;
  sizes : L.sizes;
  mem_bytes : int;
  meta : meta;
  mutable tstate_cache : Machine.tstate option;
      (* the traced engine's leader bitmap, heat/edge profile and formed
         traces, built on the first traced [load] and shared by every
         later machine for this program, so traces learned by one run
         serve the next (traces capture only the image and the hardware
         configuration, both fixed per program, never the machine) *)
}

let count_lines src =
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         let l = String.trim l in
         String.length l > 0 && l.[0] <> ';')
  |> List.length

(* The prelude's parse+expand result is program- and config-independent:
   computed once at module initialisation (on the main domain, before
   any worker spawns) and shared by every front end. *)
let prelude_defs =
  List.map
    (fun (name, src) ->
      match Expand.program src with
      | [ d ] -> (name, d, src)
      | _ -> errorf "prelude %s: expected one definition" name)
    Prelude.functions

let analyze source : frontend =
  (* 1. Parse and expand the user program (the prelude is pre-expanded
     above). *)
  let user_defs = Expand.program source in
  let user_names = List.map (fun d -> d.Ast.name) user_defs in
  (* User definitions shadow prelude ones. *)
  let defs =
    List.filter_map
      (fun (name, d, _) ->
        if List.mem name user_names then None else Some (name, d))
      prelude_defs
    @ List.map (fun d -> (d.Ast.name, d)) user_defs
  in
  (match List.assoc_opt "main" defs with
  | Some d when d.Ast.params = [] -> ()
  | Some _ -> errorf "main must take no arguments"
  | None -> errorf "program has no (de main () ...)");
  (* Detect duplicate user definitions. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then errorf "duplicate definition of %s" n;
      Hashtbl.replace seen n ())
    user_names;
  (* 2. Prune to the reachable set. *)
  let live = reachable defs ~roots:[ "main" ] in
  let retained = List.filter (fun (n, _) -> Hashtbl.mem live n) defs in
  (* Static metadata for Table 3 that only depends on the retained
     source, never on the emitted code. *)
  let retained_prelude_lines =
    List.fold_left
      (fun n (name, _, src) ->
        if Hashtbl.mem live name && not (List.mem name user_names) then
          n + count_lines src
        else n)
      0 prelude_defs
  in
  {
    fe_retained = retained;
    fe_procedures = List.length retained;
    fe_source_lines = count_lines source + retained_prelude_lines;
  }

type backend = [ `Monolithic | `Incremental ]
type opt = Tir.opt

(* The backend's phase timers.  The monolithic path schedules inside
   [Image.assemble], so its scheduling time lands in [t_assemble]. *)
let t_codegen = Metrics.counter "compiler.codegen_s"
let t_lower = Metrics.counter "compiler.lower_s"
let t_opt = Metrics.counter "compiler.opt_s"
let t_select = Metrics.counter "compiler.select_s"
let t_schedule = Metrics.counter "asm.schedule_s"
let t_assemble = Metrics.counter "asm.assemble_s"
let t_link = Metrics.counter "asm.link_s"

(* The monolithic backend: one buffer, whole-program scheduling inside
   [Image.assemble].  Kept verbatim as the incremental backend's
   differential oracle (see [test/suite_link.ml]). *)
let backend_monolithic ~sched ~scheme ~support ~symtab ~funcs retained =
  let buf = Buf.create () in
  let ctx = { Emit.b = buf; scheme; support } in
  Metrics.time t_codegen (fun () ->
      Rt.emit_startup ctx ~main_label:(L.fn_label "main");
      List.iter (fun (_, d) -> Codegen.compile_def ctx symtab funcs d) retained;
      Rt.emit_routines ctx);
  (* The symbol table must be the first static datum. *)
  let final = Buf.create () in
  Symtab.emit_data symtab scheme final;
  Buf.append final buf;
  Metrics.time t_assemble (fun () -> Image.assemble ~sched final)

(* The incremental backend: one relocatable object per unit — startup
   stub, each Lisp function, the runtime routine group — each emitted
   and delay-slot-scheduled on its own, then linked.  Per-unit
   scheduling is exact, not approximate: every unit starts with a
   label, and labels are scheduler barriers (both for hoisting and for
   fall-through pulls), so concatenating unit-scheduled streams yields
   the very stream whole-program scheduling would produce; [Link.link]
   then resolves cross-unit references.  Every unit is emitted into the
   same buffer, cleared after each is scheduled, so all fresh labels
   come from one counter and are unique across the link.

   Function units run the staged pipeline — {!Lower} (AST -> TIR),
   optionally {!Checkelim}, then {!Select} — whose opt-off output is
   byte-identical to {!Codegen.compile_def} (the monolithic oracle
   above; [test/suite_tir.ml] proves it differentially).  Returns the
   image plus the total number of checks the optimizer eliminated. *)
let backend_incremental ~sched ~scheme ~support ~symtab ~funcs ~opt retained =
  let buf = Buf.create () in
  let ctx = { Emit.b = buf; scheme; support } in
  let fragment () =
    let frag =
      Metrics.time t_schedule (fun () -> Link.fragment_of_buf ~sched buf)
    in
    Buf.clear buf;
    frag
  in
  let codegen emit =
    Metrics.time t_codegen emit;
    fragment ()
  in
  let elided = ref 0 in
  let startup =
    codegen (fun () -> Rt.emit_startup ctx ~main_label:(L.fn_label "main"))
  in
  let fns =
    List.map
      (fun (_, d) ->
        let tf =
          Metrics.time t_lower (fun () ->
              Lower.def ~fresh:(Buf.fresh buf) symtab funcs d)
        in
        let tf =
          match opt with
          | `None -> tf
          | `Checks ->
              let tf, n = Metrics.time t_opt (fun () -> Checkelim.run tf) in
              elided := !elided + n;
              tf
        in
        Metrics.time t_select (fun () -> Select.fn ctx symtab tf);
        fragment ())
      retained
  in
  let rt = codegen (fun () -> Rt.emit_routines ctx) in
  (* The symbol-table block is emitted once every unit has interned its
     symbols, and leads the layout (it has no code, so code still starts
     with the startup unit): the table stays the first static datum, at
     [L.symtab_base]. *)
  Symtab.emit_data symtab scheme buf;
  let symtab_frag = fragment () in
  let image =
    Metrics.time t_link (fun () ->
        Link.link ((symtab_frag :: startup :: fns) @ [ rt ]))
  in
  (image, !elided)

let compile_frontend ?(backend = `Incremental) ?(opt = `None)
    ?(sched = Sched.default) ?(sizes = L.default_sizes)
    ?(mem_bytes = 1 lsl 22) ~scheme ~support (fe : frontend) : t =
  let retained = fe.fe_retained in
  (* 3. Compile. *)
  let symtab = Symtab.with_builtins () in
  let funcs = Hashtbl.create 64 in
  List.iter
    (fun (n, d) ->
      Hashtbl.replace funcs n (List.length d.Ast.params);
      Symtab.mark_function symtab n ~arity:(List.length d.Ast.params);
      ignore (Symtab.intern symtab n))
    retained;
  let image, checks_eliminated =
    match backend with
    | `Monolithic ->
        (* The differential oracle ignores [opt]: it always emits the
           unoptimized, fully checked code. *)
        (backend_monolithic ~sched ~scheme ~support ~symtab ~funcs retained, 0)
    | `Incremental ->
        backend_incremental ~sched ~scheme ~support ~symtab ~funcs ~opt
          retained
  in
  assert (Image.data_address image L.l_symtab = L.symtab_base);
  (* 5. Metadata for Table 3. *)
  let meta =
    {
      procedures = fe.fe_procedures;
      source_lines = fe.fe_source_lines;
      object_words = Image.size_in_words image;
      checks_eliminated;
    }
  in
  {
    image;
    scheme;
    support;
    symtab;
    sizes;
    mem_bytes;
    meta;
    tstate_cache = None;
  }

let compile ?backend ?opt ?sched ?sizes ?mem_bytes ~scheme ~support source : t =
  compile_frontend ?backend ?opt ?sched ?sizes ?mem_bytes ~scheme ~support
    (analyze source)

(* --- Loading and running. --- *)

type hval =
  | Hint of int
  | Hsym of string
  | Hpair of hval * hval
  | Hvec of hval array
  | Hbox of int

let rec pp_hval ppf = function
  | Hint n -> Fmt.int ppf n
  | Hsym s -> Fmt.string ppf s
  | Hvec a -> Fmt.pf ppf "#(%a)" Fmt.(array ~sep:(any " ") pp_hval) a
  | Hbox n -> Fmt.pf ppf "#box(%d)" n
  | Hpair _ as p ->
      (* Print proper lists nicely. *)
      let rec elements acc = function
        | Hpair (a, rest) -> elements (a :: acc) rest
        | Hsym "nil" -> (List.rev acc, None)
        | other -> (List.rev acc, Some other)
      in
      let items, tail = elements [] p in
      (match tail with
      | None -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " ") pp_hval) items
      | Some tl ->
          Fmt.pf ppf "(%a . %a)"
            Fmt.(list ~sep:(any " ") pp_hval)
            items pp_hval tl)

let hval_to_string v = Fmt.str "%a" pp_hval v

(* Build an hval from a machine word (bounded depth to survive cycles). *)
let decode t machine w : hval =
  let scheme = t.scheme in
  let peek a = Machine.peek machine a in
  let rec go depth w =
    if depth > 100000 then Hsym "..."
    else
      match Scheme.classify scheme ~peek w with
      | Scheme.Int -> Hint (Scheme.decode_int scheme w)
      | Scheme.Symbol ->
          let idx = (Scheme.ptr_addr scheme w - L.symtab_base) / L.sym_cell_size in
          Hsym (Symtab.name_of t.symtab idx)
      | Scheme.Pair ->
          let a = Scheme.ptr_addr scheme w in
          Hpair (go (depth + 1) (peek a), go (depth + 1) (peek (a + 4)))
      | Scheme.Vector ->
          let a = Scheme.ptr_addr scheme w in
          let len = Scheme.decode_int scheme (peek (a + L.obj_off_length)) in
          Hvec
            (Array.init len (fun i ->
                 go (depth + 1) (peek (a + L.obj_off_elems + (4 * i)))))
      | Scheme.Boxnum ->
          let a = Scheme.ptr_addr scheme w in
          Hbox (Scheme.decode_int scheme (peek (a + L.obj_off_length)))
  in
  go 0 w

type result = {
  value : hval option; (* Some v on normal termination *)
  abort : string option;
  stats : Stats.t;
  gc_collections : int;
  gc_bytes_copied : int;
  map : L.map;
}

let abort_message code =
  let user = code - Machine.err_user_base in
  if user = L.trap_type_error then "type error"
  else if user = L.trap_bounds_error then "bounds error"
  else if user = L.trap_undefined_function then "undefined function"
  else if user = L.trap_heap_overflow then "heap overflow"
  else if user = L.trap_arith_error then "arithmetic error (overflow or bad type)"
  else if user = 6 then "user error"
  else if user = L.trap_arity_error then "arity"
  (* Hardware-detected failures abort with the machine's own codes: a
     tagged access whose parallel check fails is the same observable
     error as the software stub's [Trap]. *)
  else if code = Machine.err_type then "type error"
  else if code = Machine.err_bounds then "bounds error"
  else if code = Machine.err_div0 then "division by zero"
  else if code = Machine.err_stack then "stack overflow"
  else Printf.sprintf "abort %d" code

(* The retired plan store's key, as a constant for tagbench/. *)
let plan_key (_ : t) = ""

let load ?fuel ?(engine = `Traced) t =
  let hw = Scheme.machine_hw ~mem_bytes:t.mem_bytes t.scheme in
  let m = Machine.create ?fuel ~hw t.image in
  let code_len = Array.length t.image.Image.code in
  (match engine with
  | `Reference -> ()
  | `Traced ->
      (match t.tstate_cache with
      | Some ts when Array.length ts.Machine.ts_traces = code_len ->
          m.Machine.tstate <- Some ts
      | _ -> ());
      Trace.attach m;
      t.tstate_cache <- m.Machine.tstate);
  let map =
    L.compute_map ~data_end:t.image.Image.data_end ~sizes:t.sizes
      ~mem_bytes:t.mem_bytes
  in
  let poke lbl v = Machine.poke m (Image.data_address t.image lbl) v in
  poke L.l_stack_top map.L.stack_top;
  poke L.l_heap_a map.L.heap_a;
  poke L.l_heap_b map.L.heap_b;
  poke L.l_semi_bytes map.L.semi_bytes;
  poke "lay$hp_init" map.L.heap_a;
  poke "lay$hl_init" (map.L.heap_a + map.L.semi_bytes - L.heap_slack);
  poke L.l_gc_cur map.L.heap_a;
  Machine.set_stack_limit m map.L.stack_base;
  if t.support.Support.hw_generic_arith then
    Machine.set_gen_handlers m
      ~add:(Image.code_address t.image L.l_gadd_trap)
      ~sub:(Image.code_address t.image L.l_gsub_trap);
  (m, map)

let run ?fuel ?engine t : result =
  let m, map = load ?fuel ?engine t in
  let outcome = Machine.run m in
  let peek_lbl lbl = Machine.peek m (Image.data_address t.image lbl) in
  let value, abort =
    match outcome with
    | Machine.Halted w -> (Some (decode t m w), None)
    | Machine.Aborted code -> (None, Some (abort_message code))
  in
  {
    value;
    abort;
    stats = Machine.stats m;
    gc_collections = peek_lbl L.l_gc_count;
    gc_bytes_copied = peek_lbl L.l_gc_copied;
    map;
  }

(** Compile and run in one step. *)
let run_source ?opt ?sched ?sizes ?mem_bytes ?fuel ?engine ~scheme ~support
    source =
  let t = compile ?opt ?sched ?sizes ?mem_bytes ~scheme ~support source in
  (t, run ?fuel ?engine t)
