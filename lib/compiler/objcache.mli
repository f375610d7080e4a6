(** The content-keyed, in-process object memo of the incremental
    backend.

    A compilation unit (one Lisp function, the runtime routine group,
    the startup stub) compiles to a relocatable object: its scheduled
    {!Tagsim_asm.Link.fragment} plus the names it interned into the
    symbol table.  Objects and linked images are memoised in-process
    only, keyed by a digest of the unit's content, its symbol-table
    environment, the tag scheme, the (projected) support configuration,
    the scheduler configuration and the optimization level.  They are
    not persisted: writing one file per object cost a cold run about
    three times its compile time, and reading them back was no faster
    than recompiling.  See the implementation header for the full key. *)

(** [(hits, misses, writes)] of the unit memo since start or
    {!reset_counters}: units served from the memo, units built, and
    always 0 writes. *)
val counters : unit -> int * int * int

val reset_counters : unit -> unit

(** No-ops, kept only for tagbench/, which still calls them; the next
    benchmark change removes them. *)
val set_dir : string -> unit

val set_enabled : bool -> unit

(** {1 Objects} *)

type obj = {
  o_frag : Tagsim_asm.Link.fragment;
  o_interned : string list;
      (** Names the unit's compilation interned, in intern order.
          Replay (re-intern) after every {!find_or_build} so later
          units see the same symbol-table whether the object was built
          or cached; interning is idempotent, so replaying after a
          fresh build is a no-op. *)
  o_elided : int;
      (** How many checks the check-elimination pass deleted while
          building this unit (0 unless the unit was compiled with
          [`Checks]); preserved across cache hits so artifact reporting
          survives warm compiles. *)
}

(** {1 Keys} *)

(** Injective serialisation of a definition's post-expansion AST (name,
    parameters, body). *)
val def_fingerprint : Tagsim_lisp.Ast.def -> string

(** Does the definition call an arithmetic primitive?  Only those
    routes reach [Select.emit_arith] (or [Codegen.emit_arith] in the
    monolithic backend), the only readers of the generic-arithmetic
    support flags. *)
val def_uses_arith : Tagsim_lisp.Ast.def -> bool

(** Token for the support axes the unit's code can depend on.  With
    [~uses_arith:false] the generic-arithmetic flags are normalised
    away, so support rows differing only there share the object.
    Default [true] (the conservative full token — used for the startup
    and runtime units). *)
val support_token : ?uses_arith:bool -> Tagsim_tags.Support.t -> string

(** Digest of the symbol-table environment a unit compiles against:
    interned names in index order with their function marks, plus the
    program's function-arity table. *)
val env_fingerprint : Symtab.t -> (string, int) Hashtbl.t -> string

(** Cache key (hex digest).  [kind] distinguishes unit flavours
    (["fn"], ["rt"], ["startup"]); [fingerprint] is the unit's content
    fingerprint; [env] the {!env_fingerprint}; [support_token] the
    projected {!support_token}; [opt] the optimization level the unit
    was compiled under (projected to [`None] for the startup and
    runtime units, which the optimizer never sees). *)
val key :
  kind:string ->
  fingerprint:string ->
  env:string ->
  scheme:Tagsim_tags.Scheme.t ->
  support_token:string ->
  sched:Tagsim_asm.Sched.config ->
  opt:Tir.opt ->
  string

(** {1 Lookup} *)

(** Look the key up in the memo; on a miss run [build], rename its
    local labels behind the key and memoise the result. *)
val find_or_build : key:string -> build:(unit -> obj) -> obj

(** Memoise a linked image under the ordered unit-key list of its
    fragments: a linked image is a pure function of its unit keys, so a
    repeated configuration skips even the link. *)
val find_image :
  keys:string list -> build:(unit -> Tagsim_asm.Image.t) -> Tagsim_asm.Image.t

(** Drop the in-process memos — per-unit objects and linked images
    (cold-compile benchmarking/tests). *)
val clear_memo : unit -> unit
