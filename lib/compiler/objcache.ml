(** The content-keyed object memo of the incremental backend.

    A compilation unit (one Lisp function, the runtime routine group,
    the startup stub) compiles to a relocatable object: its scheduled
    {!Tagsim_asm.Link.fragment} plus the unit's intern effect on the
    symbol table.  Objects are memoised in-process, always on: a full
    Table-2-style matrix compiles each invariant function once instead
    of once per row, and a repeated configuration skips even the link.

    Objects are not persisted.  An on-disk object store used to sit
    behind the memo, but a cold [tagsim experiments] spent about three
    times as long creating its 4,086 files as compiling the units, and
    a warm run read them back no faster than it recompiled them.

    {b Key.}  The hex digest of everything the emitted unit depends on:

    - the unit kind and its content fingerprint (for a function, an
      injective serialisation of the post-expansion AST — name,
      parameters, body);
    - the symbol-table environment at the unit's start (interned names
      in index order with their function marks, plus the program's
      function-arity table): symbol indices are baked into the emitted
      code as immediates and [stb]-relative offsets;
    - the tag scheme (by name) and the {e projected} support
      configuration: the generic-arithmetic flags
      ([hw_generic_arith]/[int_biased_arith]) only reach the emitted
      code through the five arithmetic primitives, so a function that
      calls none of them drops them from its key and is shared across
      support rows that differ only there (e.g. Table 2 rows 3 and 4);
    - the delay-slot scheduler configuration;
    - the optimization level.

    {b Intern replay.}  Compiling a unit may intern new symbols (quoted
    constants, globals); their dense indices feed every later unit.  The
    object records the interned suffix, and {!find_or_build} callers
    replay it on a hit — interning is idempotent, so replaying after a
    miss (where the build already interned) is a no-op — keeping the
    symbol-table evolution identical whether units come from the memo
    or from the compiler. *)

module Sched = Tagsim_asm.Sched
module Image = Tagsim_asm.Image
module Link = Tagsim_asm.Link
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Ast = Tagsim_lisp.Ast

let hits = Atomic.make 0
let misses = Atomic.make 0

(* The memo writes nothing: the third count is always 0. *)
let counters () = (Atomic.get hits, Atomic.get misses, 0)

let reset_counters () =
  Atomic.set hits 0;
  Atomic.set misses 0

(* Kept only for tagbench/, which still calls them; the next benchmark
   change removes them. *)
let set_dir (_ : string) = ()
let set_enabled (_ : bool) = ()

(* --- Objects. --- *)

type obj = {
  o_frag : Link.fragment;
  o_interned : string list; (* intern effect, in intern order *)
  o_elided : int; (* checks the optimizer deleted building this unit *)
}

(* --- Keys. --- *)

(* Injective fingerprint of a definition's post-expansion AST: symbols
   are length-prefixed, every node carries a distinct head letter, so
   two distinct definitions can never collide. *)
let def_fingerprint (d : Ast.def) =
  let b = Buffer.create 256 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let rec const (c : Ast.const) =
    match c with
    | Ast.Cint n ->
        Buffer.add_char b 'i';
        Buffer.add_string b (string_of_int n)
    | Ast.Csym s ->
        Buffer.add_char b 'y';
        str s
    | Ast.Clist l ->
        Buffer.add_char b '(';
        List.iter const l;
        Buffer.add_char b ')'
  in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Const c ->
        Buffer.add_char b 'q';
        const c
    | Ast.Var v ->
        Buffer.add_char b 'v';
        str v
    | Ast.If (c, t, f) ->
        Buffer.add_char b '?';
        expr c;
        expr t;
        expr f;
        Buffer.add_char b '.'
    | Ast.Progn es ->
        Buffer.add_char b 'p';
        List.iter expr es;
        Buffer.add_char b '.'
    | Ast.Setq (v, e) ->
        Buffer.add_char b '=';
        str v;
        expr e
    | Ast.While (c, body) ->
        Buffer.add_char b 'w';
        expr c;
        List.iter expr body;
        Buffer.add_char b '.'
    | Ast.Let (binds, body) ->
        Buffer.add_char b 'l';
        List.iter
          (fun (v, e) ->
            str v;
            expr e)
          binds;
        Buffer.add_char b ';';
        List.iter expr body;
        Buffer.add_char b '.'
    | Ast.Call (name, args) ->
        Buffer.add_char b 'c';
        str name;
        List.iter expr args;
        Buffer.add_char b '.'
    | Ast.Funcall (f, args) ->
        Buffer.add_char b 'f';
        expr f;
        List.iter expr args;
        Buffer.add_char b '.'
  in
  Buffer.add_char b 'd';
  str d.Ast.name;
  List.iter str d.Ast.params;
  Buffer.add_char b ';';
  expr d.Ast.body;
  Buffer.contents b

(* The five primitives whose emitted code reads the generic-arithmetic
   support flags (they all route through [Select.emit_arith], or
   [Codegen.emit_arith] in the monolithic backend; nothing else does). *)
let arith_prims =
  [ "plus2"; "difference2"; "times2"; "quotient"; "remainder" ]

let rec expr_uses_arith (e : Ast.expr) =
  match e with
  | Ast.Const _ | Ast.Var _ -> false
  | Ast.If (a, b, c) ->
      expr_uses_arith a || expr_uses_arith b || expr_uses_arith c
  | Ast.Progn es -> List.exists expr_uses_arith es
  | Ast.Setq (_, e) -> expr_uses_arith e
  | Ast.While (c, body) ->
      expr_uses_arith c || List.exists expr_uses_arith body
  | Ast.Let (binds, body) ->
      List.exists (fun (_, e) -> expr_uses_arith e) binds
      || List.exists expr_uses_arith body
  | Ast.Call (name, args) ->
      List.mem name arith_prims || List.exists expr_uses_arith args
  | Ast.Funcall (f, args) ->
      expr_uses_arith f || List.exists expr_uses_arith args

let def_uses_arith (d : Ast.def) = expr_uses_arith d.Ast.body

(* The support axes a unit's emitted code can actually depend on: a
   function that calls no arithmetic primitive normalises the
   generic-arithmetic flags away (to the software defaults), so rows
   differing only there share its object.  [Support.describe] is
   injective, so the token separates every remaining configuration. *)
let support_token ?(uses_arith = true) (support : Support.t) =
  let s =
    if uses_arith then support
    else
      { support with Support.hw_generic_arith = false; int_biased_arith = true }
  in
  Support.describe s

let sched_token (s : Sched.config) =
  Printf.sprintf "%b/%b/%b" s.Sched.hoist s.Sched.fill_unlikely
    s.Sched.squash_likely

(* The symbol-table environment a unit compiles against: interned names
   in index order with their function marks, plus the function-arity
   table.  Symbol indices are baked into emitted code, so two units are
   interchangeable only when compiled against identical environments. *)
let env_fingerprint symtab funcs =
  let cells =
    List.map
      (fun n -> if Symtab.is_function symtab n then n ^ "/f" else n)
      (Symtab.names symtab)
  in
  let arities =
    Hashtbl.fold (fun n a acc -> (n, a) :: acc) funcs []
    |> List.sort compare
    |> List.map (fun (n, a) -> Printf.sprintf "%s/%d" n a)
  in
  Digest.to_hex
    (Digest.string (String.concat "\x00" (cells @ ("|" :: arities))))

let key ~kind ~fingerprint ~env ~(scheme : Scheme.t) ~support_token ~sched
    ~(opt : Tir.opt) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            kind; fingerprint; env; scheme.Scheme.name; support_token;
            sched_token sched; Tir.opt_token opt;
          ]))

(* --- The L1 memo and the lookup protocol. --- *)

let memo : (string, obj) Hashtbl.t = Hashtbl.create 256
let image_memo : (string, Image.t) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()

let memo_find k = Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo k)
let memo_add k o = Mutex.protect memo_mutex (fun () -> Hashtbl.replace memo k o)

let clear_memo () =
  Mutex.protect memo_mutex (fun () ->
      Hashtbl.reset memo;
      Hashtbl.reset image_memo)

(* Linked-image memo.  Sound because a linked image is a pure function
   of its ordered unit-key list: each key pins its unit's code, data and
   intern effect, the symbol-table block is determined by the initial
   environment (inside every key) plus the units' intern effects, and
   layout is the list order.  Images are immutable after assembly (the
   simulator blits the data image and only reads the code array), so
   sharing one across compiles is safe. *)
let find_image ~keys ~build =
  let k = Digest.to_hex (Digest.string (String.concat "\n" keys)) in
  match
    Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt image_memo k)
  with
  | Some image -> image
  | None ->
      let image = build () in
      Mutex.protect memo_mutex (fun () -> Hashtbl.replace image_memo k image);
      image

(* The build runs outside the lock: concurrent workers may duplicate a
   build (deterministic, so the last [replace] wins harmlessly) but
   never serialise on the compiler. *)
let find_or_build ~key:k ~build =
  match memo_find k with
  | Some o ->
      Atomic.incr hits;
      o
  | None ->
      Atomic.incr misses;
      let o = build () in
      (* Rename the unit's local labels behind its content key, once,
         at build time: keys are unique across the distinct units of
         any link, so linking needs no renaming pass — a memo-served
         compile is pure concatenation and assembly. *)
      let o = { o with o_frag = Link.rename ~prefix:("o" ^ k) o.o_frag } in
      memo_add k o;
      o
