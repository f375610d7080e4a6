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
module Machine = Tagsim_sim.Machine
module Predecode = Tagsim_sim.Predecode
module Fuse = Tagsim_sim.Fuse
module Trace = Tagsim_sim.Trace
module Plan = Tagsim_sim.Plan
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
  (* Engine-attachment caches: the pre-decoded closure array and the
     fused block array compiled on the first [load] and installed
     directly on every later machine for this program (they capture only
     the image and the hardware configuration, both fixed per program,
     never the machine).  [[||]] until first use; guarded by length, as
     in [Predecode.attach]. *)
  mutable exec_cache : Machine.exec_fn array;
  mutable blocks_cache : Machine.block option array;
  mutable tstate_cache : Machine.tstate option;
      (* the traced engine's heat/edge profile and formed traces,
         likewise shared across machines so traces learned by one run
         serve the next *)
  mutable plan_key_cache : string option;
      (* memoised persistent plan-store key (digesting the code array
         is not free; the key is fixed per program) *)
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

(* The monolithic backend: one buffer, whole-program scheduling inside
   [Image.assemble].  Kept verbatim as the incremental backend's
   differential oracle (see [test/suite_link.ml]). *)
let backend_monolithic ~sched ~scheme ~support ~symtab ~funcs retained =
  let buf = Buf.create () in
  let ctx = { Emit.b = buf; scheme; support } in
  Bphase.time Bphase.Codegen (fun () ->
      Rt.emit_startup ctx ~main_label:(L.fn_label "main");
      List.iter (fun (_, d) -> Codegen.compile_def ctx symtab funcs d) retained;
      Rt.emit_routines ctx);
  (* The symbol table must be the first static datum. *)
  let final = Buf.create () in
  Symtab.emit_data symtab scheme final;
  Buf.append final buf;
  Bphase.time Bphase.Assemble (fun () -> Image.assemble ~sched final)

(* The incremental backend: one relocatable object per unit — startup
   stub, each Lisp function, the runtime routine group — each emitted
   into a private buffer and delay-slot-scheduled independently, then
   linked.  Per-unit scheduling is exact, not approximate: every unit
   starts with a label, and labels are scheduler barriers (both for
   hoisting and for fall-through pulls), so concatenating
   unit-scheduled streams yields the very stream whole-program
   scheduling would produce; [Link.link] then resolves cross-unit
   references.  Units come from the content-addressed {!Objcache}
   whenever an identical unit (same content, symbol-table environment,
   scheme, projected support, scheduler config, optimization level) was
   compiled before in this process.  Memo hits skip compilation and
   scheduling entirely; only the cheap link pass remains.

   Function units run the staged pipeline — {!Lower} (AST -> TIR),
   optionally {!Checkelim}, then {!Select} — whose opt-off output is
   byte-identical to {!Codegen.compile_def} (the monolithic oracle
   above; [test/suite_tir.ml] proves it differentially).  The startup
   and runtime units contain no user code, so [opt] is projected to
   [`None] in their keys and they share objects across optimization
   levels.  Returns the image plus the total number of checks the
   optimizer eliminated (preserved across cache hits via the objects'
   [o_elided]). *)
let backend_incremental ~sched ~scheme ~support ~symtab ~funcs ~opt retained =
  let build_unit emit =
    let before = Symtab.count symtab in
    let buf = Buf.create () in
    let ctx = { Emit.b = buf; scheme; support } in
    let elided = emit ctx in
    let frag =
      Bphase.time Bphase.Schedule (fun () -> Link.fragment_of_buf ~sched buf)
    in
    {
      Objcache.o_frag = frag;
      o_interned = Symtab.names_from symtab before;
      o_elided = elided;
    }
  in
  (* The environment fingerprint is taken at the unit's start, and the
     unit's intern effect is replayed after every lookup (idempotent
     when the build just performed it), so the symbol table evolves
     identically on hits and misses and later units key against the
     same environment either way. *)
  let cached ~kind ~fingerprint ~support_token ~opt emit =
    let env = Objcache.env_fingerprint symtab funcs in
    let k =
      Objcache.key ~kind ~fingerprint ~env ~scheme ~support_token ~sched ~opt
    in
    let o = Objcache.find_or_build ~key:k ~build:(fun () -> build_unit emit) in
    List.iter (fun s -> ignore (Symtab.intern symtab s)) o.Objcache.o_interned;
    (k, o)
  in
  let full_token = Objcache.support_token support in
  let startup =
    cached ~kind:"startup" ~fingerprint:(L.fn_label "main")
      ~support_token:full_token ~opt:`None (fun ctx ->
        Bphase.time Bphase.Codegen (fun () ->
            Rt.emit_startup ctx ~main_label:(L.fn_label "main"));
        0)
  in
  let fn_frags =
    List.map
      (fun (_, d) ->
        cached ~kind:"fn" ~fingerprint:(Objcache.def_fingerprint d)
          ~support_token:
            (Objcache.support_token ~uses_arith:(Objcache.def_uses_arith d)
               support)
          ~opt
          (fun ctx ->
            let tf =
              Bphase.time Bphase.Lower (fun () -> Lower.def symtab funcs d)
            in
            let tf, elided =
              match opt with
              | `None -> (tf, 0)
              | `Checks -> Bphase.time Bphase.Opt (fun () -> Checkelim.run tf)
            in
            Bphase.time Bphase.Select (fun () -> Select.fn ctx symtab tf);
            elided))
      retained
  in
  let rt =
    cached ~kind:"rt" ~fingerprint:"routines" ~support_token:full_token
      ~opt:`None (fun ctx ->
        Bphase.time Bphase.Codegen (fun () -> Rt.emit_routines ctx);
        0)
  in
  let units = (startup :: fn_frags) @ [ rt ] in
  let keys = List.map fst units in
  let frags = List.map (fun (_, o) -> o.Objcache.o_frag) units in
  let elided =
    List.fold_left (fun n (_, o) -> n + o.Objcache.o_elided) 0 units
  in
  (* The whole linked image is memoised under the ordered unit-key
     list: a configuration seen before (the steady state of a matrix
     run) skips even the link.  On a miss, the symbol-table block —
     pure data derived from the final table, trivially re-emitted, so
     never cached itself — leads the layout (code starts with the
     startup unit, since the block has no code): the table stays the
     first static datum, at [L.symtab_base]. *)
  let image =
    Objcache.find_image ~keys ~build:(fun () ->
        let symtab_frag =
          let b = Buf.create () in
          Symtab.emit_data symtab scheme b;
          Link.fragment_of_buf ~sched b
        in
        Bphase.time Bphase.Link (fun () -> Link.link (symtab_frag :: frags)))
  in
  (image, elided)

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
    exec_cache = [||];
    blocks_cache = [||];
    tstate_cache = None;
    plan_key_cache = None;
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
  else Printf.sprintf "abort %d" code

(* The plan-store key: the image fingerprint already separates every
   code-affecting axis (program, scheme, support, sched, opt); the
   scheme/memory token additionally pins the hardware the traces were
   grown for.  Memoised — the fingerprint digests the code array. *)
let plan_key t =
  match t.plan_key_cache with
  | Some k -> k
  | None ->
      let token = Printf.sprintf "%s/%d" t.scheme.Scheme.name t.mem_bytes in
      let k = Plan.key ~fingerprint:(Plan.image_fingerprint t.image) ~token in
      t.plan_key_cache <- Some k;
      k

let drop_tstate t = t.tstate_cache <- None

let load ?fuel ?(engine = `Traced) t =
  let hw = Scheme.machine_hw ~mem_bytes:t.mem_bytes t.scheme in
  let m = Machine.create ?fuel ~engine ~hw t.image in
  let code_len = Array.length t.image.Image.code in
  (match engine with
  | `Reference -> ()
  | `Predecoded ->
      if Array.length t.exec_cache = code_len then
        m.Machine.exec <- t.exec_cache
      else begin
        Predecode.attach m;
        t.exec_cache <- m.Machine.exec
      end
  | `Fused ->
      if Array.length t.exec_cache = code_len then
        m.Machine.exec <- t.exec_cache;
      if Array.length t.blocks_cache = code_len then
        m.Machine.blocks <- t.blocks_cache
      else begin
        Fuse.attach m;
        t.exec_cache <- m.Machine.exec;
        t.blocks_cache <- m.Machine.blocks
      end
  | `Traced ->
      if Array.length t.exec_cache = code_len then
        m.Machine.exec <- t.exec_cache;
      if Array.length t.blocks_cache = code_len then
        m.Machine.blocks <- t.blocks_cache;
      let fresh =
        match t.tstate_cache with
        | Some ts when Array.length ts.Machine.ts_traces = code_len ->
            m.Machine.tstate <- Some ts;
            false
        | _ -> true
      in
      Trace.attach m;
      (* Ahead-of-time warm start: a freshly attached tstate picks up
         every persisted superblock that still validates, so the run
         needs no tier-1 profiling on the planned heads.  A shared
         (non-fresh) tstate already carries its traces. *)
      if fresh && Plan.enabled () then (
        match Plan.load (plan_key t) with
        | Some plan -> ignore (Trace.precompile m plan)
        | None -> ());
      t.exec_cache <- m.Machine.exec;
      t.blocks_cache <- m.Machine.blocks;
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
  if t.support.Support.hw_generic_arith then
    Machine.set_gen_handlers m
      ~add:(Image.code_address t.image L.l_gadd_trap)
      ~sub:(Image.code_address t.image L.l_gsub_trap);
  (m, map)

let run ?fuel ?engine t : result =
  let m, map = load ?fuel ?engine t in
  let outcome = Machine.run m in
  (* Flush newly formed trace plans: when this run's online formation
     added anything, rewrite the full plan (pre-loaded + formed) so the
     next cold process warm-starts with everything known so far. *)
  (match m.Machine.tstate with
  | Some ts when ts.Machine.ts_dirty && Plan.enabled () ->
      Plan.store (plan_key t) (List.rev ts.Machine.ts_plans);
      ts.Machine.ts_dirty <- false
  | _ -> ());
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
