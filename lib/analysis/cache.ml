(** The persistent (L2) measurement cache.

    Experiment re-runs are dominated by re-deriving byte-identical
    measurements: the same ten registry programs compiled and simulated
    under the same tag-scheme/support configurations as the previous
    invocation.  This module stores each measurement on disk under a
    content-addressed key, so a warm [tagsim experiments] run performs
    zero compilations and zero simulations.

    {b Key.} The hex digest of everything a measurement depends on:

    - the program's content {!Registry.fingerprint} (source, expected
      value, heap sizing);
    - the tag scheme (by name) and the support configuration (by its
      injective {!Support.describe} flag string);
    - the delay-slot scheduler configuration;
    - a digest of the prelude sources (edits to prelude Lisp invalidate
      automatically);
    - the {!version} stamp.

    Keys are engine-agnostic: all simulator engines are bit-identical
    (the differential suite enforces it), so a measurement produced by
    one engine is valid for every other.

    {b Version stamp.} [version] must be bumped on any change that can
    alter a measurement without changing the key's other inputs: code
    generation, runtime assembly, scheme semantics, the cost model, or
    the {!Stats.t} layout.  It is the only stamp such a change bumps:
    compiled objects are memoised in-process only (see
    {!Tagsim_compiler.Objcache}), so no persisted object can outlive
    the code generator that built it.

    {b Robustness.} Entries live in the [cache] namespace of
    {!Tagsim_store.Store}: every damaged, stale or misplaced entry is a
    miss (recompute). *)

module Stats = Tagsim_sim.Stats
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sched = Tagsim_asm.Sched
module Registry = Tagsim_programs.Registry
module Program = Tagsim_compiler.Program
module Prelude = Tagsim_compiler.Prelude
module Store = Tagsim_store.Store

(* Bump on any measurement-affecting change: codegen, runtime, scheme
   semantics, cost model, or Stats layout (see the header comment).
   2: the optimization level joined the key and the payload meta line
   gained the eliminated-check count.
   3: the funcall path gained a dynamic arity check.
   4: checked multiplies verify their product by dividing it back. *)
let version = "4"

let namespace =
  Store.create ~name:"cache" ~ext:"entry" ~version ~dir:"_tagsim_cache"

let enabled () = Store.enabled namespace
let set_enabled = Store.set_enabled namespace
let dir () = Store.dir namespace
let set_dir = Store.set_dir namespace
let counters () = Store.counters namespace
let reset_counters () = Store.reset_counters namespace

(* --- Keys. --- *)

let prelude_digest =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.concat_map (fun (name, src) -> [ name; src ])
             Prelude.functions)))

let sched_token (s : Sched.config) =
  Printf.sprintf "%b/%b/%b" s.Sched.hoist s.Sched.fill_unlikely
    s.Sched.squash_likely

let key ?(sched = Sched.default) ?(opt = `None) ~scheme ~support
    (entry : Registry.entry) =
  Store.key namespace
    [
      prelude_digest;
      Registry.fingerprint entry;
      scheme.Scheme.name;
      Support.describe support;
      sched_token sched;
      Tagsim_compiler.Tir.opt_token opt;
    ]

let entry_path = Store.path namespace

(* --- Payload (de)serialisation. --- *)

type payload = {
  p_stats : Stats.t;
  p_gc_collections : int;
  p_gc_bytes_copied : int;
  p_meta : Program.meta;
}

(* A plain line-oriented integer format rather than [Marshal]: it is
   stable across compiler versions, trivially diffable when debugging,
   and a truncation is detectable (the ["end"] trailer). *)
let serialize (p : payload) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let ints name a =
    line "%s %d %s" name (Array.length a)
      (String.concat " " (Array.to_list (Array.map string_of_int a)))
  in
  let s = p.p_stats in
  line "cycles %d" s.Stats.cycles;
  line "insns %d" s.Stats.insns;
  ints "kind_cycles" s.Stats.kind_cycles;
  ints "klass_insns" s.Stats.klass_insns;
  line "squashed %d" s.Stats.squashed;
  line "interlocks %d" s.Stats.interlocks;
  line "traps %d" s.Stats.traps;
  line "trap_cycles %d" s.Stats.trap_cycles;
  line "gc %d %d" p.p_gc_collections p.p_gc_bytes_copied;
  line "meta %d %d %d %d" p.p_meta.Program.procedures
    p.p_meta.Program.source_lines p.p_meta.Program.object_words
    p.p_meta.Program.checks_eliminated;
  line "end";
  Buffer.contents b

exception Malformed

let parse (text : string) : payload =
  let lines = String.split_on_char '\n' text in
  let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let expect tag l =
    match fields l with
    | t :: rest when t = tag -> rest
    | _ -> raise Malformed
  in
  let int1 tag l =
    match expect tag l with [ v ] -> int_of_string v | _ -> raise Malformed
  in
  let ints tag l =
    match expect tag l with
    | n :: vs ->
        let n = int_of_string n in
        if List.length vs <> n then raise Malformed;
        Array.of_list (List.map int_of_string vs)
    | [] -> raise Malformed
  in
  match lines with
  | cycles :: insns :: kinds :: klasses :: squashed :: interlocks :: traps
    :: trap_cycles :: gc :: meta :: trailer :: _ ->
      if String.trim trailer <> "end" then raise Malformed;
      let gc_c, gc_b =
        match expect "gc" gc with
        | [ c; b ] -> (int_of_string c, int_of_string b)
        | _ -> raise Malformed
      in
      let procedures, source_lines, object_words, checks_eliminated =
        match expect "meta" meta with
        | [ p; s; o; e ] ->
            (int_of_string p, int_of_string s, int_of_string o,
             int_of_string e)
        | _ -> raise Malformed
      in
      {
        p_stats =
          {
            Stats.cycles = int1 "cycles" cycles;
            insns = int1 "insns" insns;
            kind_cycles = ints "kind_cycles" kinds;
            klass_insns = ints "klass_insns" klasses;
            squashed = int1 "squashed" squashed;
            interlocks = int1 "interlocks" interlocks;
            traps = int1 "traps" traps;
            trap_cycles = int1 "trap_cycles" trap_cycles;
          };
        p_gc_collections = gc_c;
        p_gc_bytes_copied = gc_b;
        p_meta =
          { Program.procedures; source_lines; object_words;
            checks_eliminated };
      }
  | _ -> raise Malformed

let load k = Store.load namespace k parse
let store k p = Store.store namespace k serialize p
let wipe () = Store.wipe namespace
