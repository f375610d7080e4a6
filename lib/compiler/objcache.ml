(** The two-level content-addressed object cache of the incremental
    backend.

    A compilation unit (one Lisp function, the runtime routine group,
    the startup stub) compiles to a relocatable object: its scheduled
    {!Tagsim_asm.Link.fragment} plus the unit's intern effect on the
    symbol table.  Objects are memoised in-process (L1, always on) and,
    when enabled, persisted under [_tagsim_cache/obj/] (L2, the [obj]
    namespace of {!Tagsim_store.Store}): a full
    Table-2-style matrix compiles each invariant function once instead
    of once per row, and a second cold process reuses objects on disk.

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
    - the {!version} stamp.

    {b Intern replay.}  Compiling a unit may intern new symbols (quoted
    constants, globals); their dense indices feed every later unit.  The
    object records the interned suffix, and {!find_or_build} callers
    replay it on a hit — interning is idempotent, so replaying after a
    miss (where the build already interned) is a no-op — keeping the
    symbol-table evolution identical whether units come from the cache
    or from the compiler.

    {b Robustness.}  Every damaged, stale or misplaced object is a
    silent miss (see {!Tagsim_store.Store}). *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Buf = Tagsim_asm.Buf
module Sched = Tagsim_asm.Sched
module Image = Tagsim_asm.Image
module Link = Tagsim_asm.Link
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Ast = Tagsim_lisp.Ast
module Store = Tagsim_store.Store

(* Bump on any change to emitted code or to this serialisation format:
   code generation, runtime emission, delay-slot scheduling, the
   instruction set, or the object layout below.  (Changes that alter
   emitted code also alter measurements, so they bump the measurement
   cache's [Cache.version] as well; a format-only change here bumps
   this stamp alone.)
   2: the optimization level joined the key, and objects record their
   eliminated-check count — a pre-refactor entry can never satisfy a
   post-refactor lookup.
   3: the funcall path gained a dynamic arity check (and the symbol
   table's name-id words carry arities), so pre-change objects emit
   different code.
   4: checked multiplies verify their product by dividing it back
   (word-wrapped products used to escape the validity test). *)
let version = "4"

(* The L1 memo is always on — objects are immutable and
   content-addressed, so sharing them is semantics-free; its hits count
   on this namespace too. *)
let namespace =
  Store.create ~name:"obj" ~ext:"obj" ~version
    ~dir:(Filename.concat "_tagsim_cache" "obj")

let enabled () = Store.enabled namespace
let set_enabled = Store.set_enabled namespace
let dir () = Store.dir namespace
let set_dir = Store.set_dir namespace
let counters () = Store.counters namespace
let reset_counters () = Store.reset_counters namespace

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
  Store.key namespace
    [
      kind; fingerprint; env; scheme.Scheme.name; support_token;
      sched_token sched; Tir.opt_token opt;
    ]

(* --- Serialisation (line-oriented text, like the measurement cache:
   stable across compiler versions, diffable, truncation-detectable via
   the ["end"] trailer). --- *)

exception Malformed

let alu_tokens : (Insn.alu * string) list =
  [
    (Insn.Add, "add"); (Insn.Sub, "sub"); (Insn.And, "and"); (Insn.Or, "or");
    (Insn.Xor, "xor"); (Insn.Nor, "nor"); (Insn.Slt, "slt");
    (Insn.Sltu, "sltu"); (Insn.Sll, "sll"); (Insn.Srl, "srl");
    (Insn.Sra, "sra"); (Insn.Mul, "mul"); (Insn.Div, "div"); (Insn.Rem, "rem");
  ]

let cond_tokens : (Insn.cond * string) list =
  [
    (Insn.Eq, "eq"); (Insn.Ne, "ne"); (Insn.Lt, "lt"); (Insn.Ge, "ge");
    (Insn.Gt, "gt"); (Insn.Le, "le");
  ]

let hint_tokens : (Insn.hint * string) list =
  [
    (Insn.No_hint, "n"); (Insn.Unlikely, "u"); (Insn.Slow_path, "s");
    (Insn.Likely, "l");
  ]

let to_token table v = List.assoc v table

let of_token table tok =
  match List.find_opt (fun (_, t) -> t = tok) table with
  | Some (v, _) -> v
  | None -> raise Malformed

let mode_token = function
  | Insn.Plain -> "p"
  | Insn.Tag_ignoring -> "t"
  | Insn.Checked n -> "c" ^ string_of_int n

let mode_of_token tok =
  match tok with
  | "p" -> Insn.Plain
  | "t" -> Insn.Tag_ignoring
  | _ when String.length tok > 1 && tok.[0] = 'c' -> (
      match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
      | Some n -> Insn.Checked n
      | None -> raise Malformed)
  | _ -> raise Malformed

let source_of_index i =
  match List.nth_opt Annot.all_sources i with
  | Some s -> s
  | None -> raise Malformed

let annot_token (a : Annot.t) =
  let kind =
    match a.Annot.kind with
    | Annot.Plain -> "p"
    | Annot.Insert -> "i"
    | Annot.Remove -> "r"
    | Annot.Extract s -> "e" ^ string_of_int (Annot.source_index s)
    | Annot.Check s -> "c" ^ string_of_int (Annot.source_index s)
    | Annot.Garith -> "g"
    | Annot.Alloc -> "a"
    | Annot.Gc_work -> "w"
    | Annot.Slot_fill -> "f"
  in
  if a.Annot.checking then kind ^ "!" else kind

let annot_of_token tok =
  let n = String.length tok in
  if n = 0 then raise Malformed;
  let checking = tok.[n - 1] = '!' in
  let tok = if checking then String.sub tok 0 (n - 1) else tok in
  let idx () =
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some i -> source_of_index i
    | None -> raise Malformed
  in
  let kind =
    match tok with
    | "p" -> Annot.Plain
    | "i" -> Annot.Insert
    | "r" -> Annot.Remove
    | "g" -> Annot.Garith
    | "a" -> Annot.Alloc
    | "w" -> Annot.Gc_work
    | "f" -> Annot.Slot_fill
    | _ when tok.[0] = 'e' -> Annot.Extract (idx ())
    | _ when tok.[0] = 'c' -> Annot.Check (idx ())
    | _ -> raise Malformed
  in
  Annot.make ~checking kind

let insn_tokens (insn : string Insn.t) =
  let i = string_of_int in
  match insn with
  | Insn.Alu (op, rd, rs, rt) ->
      [ "alu"; to_token alu_tokens op; i rd; i rs; i rt ]
  | Insn.Alui (op, rd, rs, imm) ->
      [ "alui"; to_token alu_tokens op; i rd; i rs; i imm ]
  | Insn.Li (rd, imm) -> [ "li"; i rd; i imm ]
  | Insn.La (rd, l) -> [ "la"; i rd; l ]
  | Insn.Mv (rd, rs) -> [ "mv"; i rd; i rs ]
  | Insn.Ld (m, rd, rs, off) -> [ "ld"; mode_token m; i rd; i rs; i off ]
  | Insn.St (m, rs, rt, off) -> [ "st"; mode_token m; i rs; i rt; i off ]
  | Insn.B (b, l) ->
      [
        "b"; to_token cond_tokens b.Insn.cond; i b.Insn.rs; i b.Insn.rt;
        (if b.Insn.squash then "1" else "0");
        to_token hint_tokens b.Insn.hint; l;
      ]
  | Insn.Bi (b, l) ->
      [
        "bi"; to_token cond_tokens b.Insn.bi_cond; i b.Insn.bi_rs;
        i b.Insn.bi_imm;
        (if b.Insn.bi_squash then "1" else "0");
        to_token hint_tokens b.Insn.bi_hint; l;
      ]
  | Insn.Btag (b, l) ->
      [
        "btag";
        (if b.Insn.bt_neg then "1" else "0");
        i b.Insn.bt_rs; i b.Insn.bt_tag;
        (if b.Insn.bt_squash then "1" else "0");
        to_token hint_tokens b.Insn.bt_hint; l;
      ]
  | Insn.J l -> [ "j"; l ]
  | Insn.Jal l -> [ "jal"; l ]
  | Insn.Jr r -> [ "jr"; i r ]
  | Insn.Jalr r -> [ "jalr"; i r ]
  | Insn.Add_gen (rd, rs, rt) -> [ "addg"; i rd; i rs; i rt ]
  | Insn.Sub_gen (rd, rs, rt) -> [ "subg"; i rd; i rs; i rt ]
  | Insn.Settd r -> [ "settd"; i r ]
  | Insn.Rett -> [ "rett" ]
  | Insn.Trap n -> [ "trap"; i n ]
  | Insn.Halt -> [ "halt" ]
  | Insn.Nop -> [ "nop" ]

let num tok =
  match int_of_string_opt tok with Some n -> n | None -> raise Malformed

let flag tok =
  match tok with "0" -> false | "1" -> true | _ -> raise Malformed

let insn_of_tokens toks : string Insn.t =
  match toks with
  | [ "alu"; op; rd; rs; rt ] ->
      Insn.Alu (of_token alu_tokens op, num rd, num rs, num rt)
  | [ "alui"; op; rd; rs; imm ] ->
      Insn.Alui (of_token alu_tokens op, num rd, num rs, num imm)
  | [ "li"; rd; imm ] -> Insn.Li (num rd, num imm)
  | [ "la"; rd; l ] -> Insn.La (num rd, l)
  | [ "mv"; rd; rs ] -> Insn.Mv (num rd, num rs)
  | [ "ld"; m; rd; rs; off ] ->
      Insn.Ld (mode_of_token m, num rd, num rs, num off)
  | [ "st"; m; rs; rt; off ] ->
      Insn.St (mode_of_token m, num rs, num rt, num off)
  | [ "b"; c; rs; rt; sq; h; l ] ->
      Insn.B
        ( {
            Insn.cond = of_token cond_tokens c;
            rs = num rs;
            rt = num rt;
            squash = flag sq;
            hint = of_token hint_tokens h;
          },
          l )
  | [ "bi"; c; rs; imm; sq; h; l ] ->
      Insn.Bi
        ( {
            Insn.bi_cond = of_token cond_tokens c;
            bi_rs = num rs;
            bi_imm = num imm;
            bi_squash = flag sq;
            bi_hint = of_token hint_tokens h;
          },
          l )
  | [ "btag"; neg; rs; tag; sq; h; l ] ->
      Insn.Btag
        ( {
            Insn.bt_neg = flag neg;
            bt_rs = num rs;
            bt_tag = num tag;
            bt_squash = flag sq;
            bt_hint = of_token hint_tokens h;
          },
          l )
  | [ "j"; l ] -> Insn.J l
  | [ "jal"; l ] -> Insn.Jal l
  | [ "jr"; r ] -> Insn.Jr (num r)
  | [ "jalr"; r ] -> Insn.Jalr (num r)
  | [ "addg"; rd; rs; rt ] -> Insn.Add_gen (num rd, num rs, num rt)
  | [ "subg"; rd; rs; rt ] -> Insn.Sub_gen (num rd, num rs, num rt)
  | [ "settd"; r ] -> Insn.Settd (num r)
  | [ "rett" ] -> Insn.Rett
  | [ "trap"; n ] -> Insn.Trap (num n)
  | [ "halt" ] -> Insn.Halt
  | [ "nop" ] -> Insn.Nop
  | _ -> raise Malformed

let serialize (o : obj) =
  let b = Buffer.create 4096 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  line ("elided " ^ string_of_int o.o_elided);
  List.iter (fun l -> line ("local " ^ l)) o.o_frag.Link.f_locals;
  List.iter (fun s -> line ("sym " ^ s)) o.o_interned;
  List.iter
    (function
      | Buf.L l -> line ("L " ^ l)
      | Buf.C c -> line ("C " ^ String.escaped c)
      | Buf.I s ->
          line
            (String.concat " "
               ("I"
               :: (if s.Buf.speculative then "1" else "0")
               :: annot_token s.Buf.annot
               :: insn_tokens s.Buf.insn)))
    o.o_frag.Link.f_code;
  List.iter
    (fun (lbl, d) ->
      let l = Option.value lbl ~default:"-" in
      line
        (match d with
        | Buf.Word w -> Printf.sprintf "D %s w %d" l w
        | Buf.Addr t -> Printf.sprintf "D %s a %s" l t
        | Buf.Tagged (t, tg) -> Printf.sprintf "D %s t %s %d" l t tg.Buf.ty_code
        | Buf.Space n -> Printf.sprintf "D %s s %d" l n
        | Buf.Align n -> Printf.sprintf "D %s l %d" l n))
    o.o_frag.Link.f_data;
  line "end";
  Buffer.contents b

(* Rebuilding a [Tagged] datum's closure needs the object's scheme: the
   stored type code plus [Scheme.encode_ptr] reproduce exactly what
   [Codegen] built. *)
let parse ~(scheme : Scheme.t) (text : string) : obj =
  let lines = String.split_on_char '\n' text in
  let split l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let rest_after l =
    (* Everything after the first space: comments may contain spaces. *)
    match String.index_opt l ' ' with
    | None -> raise Malformed
    | Some i -> String.sub l (i + 1) (String.length l - i - 1)
  in
  let locals = ref [] and syms = ref [] and code = ref [] and data = ref [] in
  let elided = ref 0 in
  let saw_end = ref false in
  let rec go = function
    | [] -> ()
    | line :: rest ->
        if !saw_end then (if String.trim line <> "" then raise Malformed)
        else
          (match split line with
          | [ "end" ] -> saw_end := true
          | [ "elided"; n ] -> elided := num n
          | "local" :: [ l ] -> locals := l :: !locals
          | "sym" :: [ s ] -> syms := s :: !syms
          | "L" :: [ l ] -> code := Buf.L l :: !code
          | "C" :: _ ->
              let c =
                match Scanf.unescaped (rest_after line) with
                | c -> c
                | exception _ -> raise Malformed
              in
              code := Buf.C c :: !code
          | "I" :: spec :: annot :: insn ->
              code :=
                Buf.I
                  {
                    Buf.insn = insn_of_tokens insn;
                    annot = annot_of_token annot;
                    speculative = flag spec;
                  }
                :: !code
          | "D" :: lbl :: d ->
              let label = if lbl = "-" then None else Some lbl in
              let datum =
                match d with
                | [ "w"; w ] -> Buf.Word (num w)
                | [ "a"; t ] -> Buf.Addr t
                | [ "t"; t; code ] ->
                    let ty =
                      match Scheme.ty_of_code (num code) with
                      | ty -> ty
                      | exception Invalid_argument _ -> raise Malformed
                    in
                    Buf.Tagged
                      ( t,
                        {
                          Buf.ty_code = Scheme.ty_code ty;
                          apply = (fun a -> Scheme.encode_ptr scheme ty a);
                        } )
                | [ "s"; n ] -> Buf.Space (num n)
                | [ "l"; n ] -> Buf.Align (num n)
                | _ -> raise Malformed
              in
              data := (label, datum) :: !data
          | _ -> raise Malformed);
          go rest
  in
  go lines;
  if not !saw_end then raise Malformed;
  {
    o_frag =
      {
        Link.f_code = List.rev !code;
        f_data = List.rev !data;
        f_locals = List.rev !locals;
      };
    o_interned = List.rev !syms;
    o_elided = !elided;
  }

let wipe () = Store.wipe namespace

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

(* Linked-image memo (in-process only; images are never persisted —
   the per-unit objects are).  Sound because a linked image is a pure
   function of its ordered unit-key list: each key pins its unit's
   code, data and intern effect, the symbol-table block is determined
   by the initial environment (inside every key) plus the units' intern
   effects, and layout is the list order.  Images are immutable after
   assembly (the simulator blits the data image and only reads the code
   array), so sharing one across compiles is safe. *)
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
let find_or_build ~scheme ~key:k ~build =
  match memo_find k with
  | Some o ->
      Store.count_hit namespace;
      o
  | None -> (
      match Store.load namespace k (parse ~scheme) with
      | Some o ->
          memo_add k o;
          o
      | None ->
          if not (enabled ()) then Store.count_miss namespace;
          let o = build () in
          (* Rename the unit's local labels behind its content key,
             once, at build time: keys are unique across the distinct
             units of any link, so linking needs no renaming pass — a
             warm-cache compile is pure concatenation and assembly.
             (Persisted objects store the renamed form.) *)
          let o = { o with o_frag = Link.rename ~prefix:("o" ^ k) o.o_frag } in
          memo_add k o;
          Store.store namespace k serialize o;
          o)
