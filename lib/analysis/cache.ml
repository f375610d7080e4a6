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
    - the delay-slot scheduler configuration and the optimization level;
    - the code digest {!Code_digest.v}.

    Keys are engine-agnostic: all simulator engines are bit-identical
    (the differential suite enforces it), so a measurement produced by
    one engine is valid for every other.

    {b Code digest.} [Code_digest.v] is the MD5 of the source of every
    module a measurement can depend on: the [lisp], [mipsx], [asm],
    [tags], [runtime], [compiler], [sim] and [programs] libraries, plus
    [run.ml] and this file.  The build computes it (see [dune]), so any
    edit to code generation, the runtime, the prelude, scheme
    semantics, the cost model or this file's format changes every key
    and every header: entries made by another build are misses.  They
    stay on disk, about 400 bytes each, 280 per build, until
    [make clean-cache].  An edit elsewhere (a table's rendering, the
    CLI) keeps the digest, and with it every entry.

    {b Entries.} One file [<dir>/<key>.entry] per key, starting with the
    header line [tagsim-store cache <code digest> <key> <md5 of body>].
    A lookup returns the body only when all of it matches, so a
    missing, unreadable, truncated, bit-flipped, stale or misplaced file
    is a counted miss, never a hit with other bytes.  Writes go to a
    unique temp file renamed over the entry, so concurrent processes and
    domains never expose a partial file; a failed write is dropped
    silently. *)

module Metrics = Tagsim_metrics.Metrics
module Stats = Tagsim_sim.Stats
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sched = Tagsim_asm.Sched
module Registry = Tagsim_programs.Registry
module Program = Tagsim_compiler.Program

(* --- The store.  Configure it before any fan-out starts: workers
   only read [on] and [root]. --- *)

let on = ref false
let root = ref "_tagsim_cache"
let hits = Metrics.counter "cache.hits"
let misses = Metrics.counter "cache.misses"
let writes = Metrics.counter "cache.writes"
let enabled () = !on
let set_enabled b = on := b
let dir () = !root
let set_dir d = root := d
let counters () = Metrics.(get hits, get misses, get writes)

(* --- Keys. --- *)

let sched_token (s : Sched.config) =
  Printf.sprintf "%b/%b/%b" s.Sched.hoist s.Sched.fill_unlikely
    s.Sched.squash_likely

let key ?(sched = Sched.default) ?(opt = `None) ~scheme ~support
    (entry : Registry.entry) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            "tagsim-cache";
            Code_digest.v;
            Registry.fingerprint entry;
            scheme.Scheme.name;
            Support.describe support;
            sched_token sched;
            Tagsim_compiler.Tir.opt_token opt;
          ]))

let entry_path k = Filename.concat !root (k ^ ".entry")

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

(* --- Entry framing. --- *)

(* The header line up to, not including, the body digest. *)
let prefix k = Printf.sprintf "tagsim-store cache %s %s " Code_digest.v k

(* The body of [k]'s file if it is a well-formed entry for [k]: the
   header line, then a body with the digest the header names. *)
let read_body k =
  In_channel.with_open_bin (entry_path k) (fun ic ->
      let header = input_line ic in
      (* [input_line] also returns an unterminated last line. *)
      if pos_in ic <> String.length header + 1 then None
      else
        let body = really_input_string ic (in_channel_length ic - pos_in ic) in
        if header = prefix k ^ Digest.to_hex (Digest.string body) then
          Some body
        else None)

let load k =
  if not !on then None
  else
    let result =
      match read_body k with
      | Some body -> ( try Some (parse body) with _ -> None)
      | None -> None
      | exception _ -> None
    in
    Metrics.add (if Option.is_some result then hits else misses) 1;
    result

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o777 with Sys_error _ -> ()
  end

let store k p =
  if !on then begin
    (* Unique per process and domain; ends in [.entry] so that [wipe]
       finds one a kill left between the write and the rename. *)
    let tmp =
      Filename.concat !root
        (Printf.sprintf "%s.tmp.%d.%d.entry" k (Unix.getpid ())
           (Domain.self () :> int))
    in
    try
      let body = serialize p in
      mkdir_p !root;
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc (prefix k);
          output_string oc (Digest.to_hex (Digest.string body));
          output_char oc '\n';
          output_string oc body);
      Sys.rename tmp (entry_path k);
      Metrics.add writes 1
    with _ -> ( try Sys.remove tmp with Sys_error _ -> ())
  end

let wipe () =
  match Sys.readdir !root with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".entry" then
            try Sys.remove (Filename.concat !root name) with Sys_error _ -> ())
        names
