(** Persistent superblock trace plans.

    The traced engine discovers its superblocks online: tier 1 profiles
    block heat and edge shares, and only then grows and compiles traces
    — so every run of a given image pays the same profiling warmup to
    rediscover the same hot paths.  A {e plan} is the pure-data residue
    of that discovery: for each formed trace, the ordered segment path
    (leader pc, terminator pc, junction kind, expected successor) and
    the trace exit, with loop unrolling and return matching already
    applied.  Plans contain no closures and no statistics — everything
    else the trace compiler needs (instruction entries, fused delay
    slots, block lengths, squash flags) is re-derived from the live
    image and re-validated on load, so a plan can never make a run
    wrong, only warm.

    This module holds the plan data type, its (de)serialisation, and a
    persistent store under [_tagsim_cache/plan/], the [plan] namespace
    of {!Tagsim_store.Store}: a damaged, stale or misplaced entry is a
    miss (fall back to online formation).

    {b Key.} The hex digest of the image fingerprint (a digest of the
    code array: instructions, annotations, speculation flags), a
    caller-supplied hardware/scheme token, and the {!version} stamp.

    {b Version stamp.} Bump on any change to the plan format {e or} to
    trace formation semantics (growth heuristics, unroll policy, return
    matching): unlike [Cache] — whose stale entries would yield wrong
    numbers — a stale plan is merely a suboptimal warm start,
    but the stamp keeps stored plans aligned with what the current
    engine would have formed.  The stamp participates in the key digest
    and the store header, so entries from either side of a bump are
    never hit. *)

module Image = Tagsim_asm.Image
module Store = Tagsim_store.Store

(* Bump on plan-format or trace-formation changes (see header). *)
let version = "1"

(* How a planned segment ends, and which successor the path expects.
   Mirrored (by type equation) into [Trace]'s growth machinery so the
   plan records the junction exactly as it was grown. *)
type jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

(* One block of a superblock path.  Everything else the compiler needs
   (terminator entry, delay slots, body length, squash flag) is
   re-derived from the image via [Fuse.shape] and validated on load. *)
type seg = {
  ps_pc : int; (* leader *)
  ps_stop : int; (* terminator address *)
  ps_jct : jct;
  ps_next : int; (* expected successor leader (trace exit for the last) *)
}

(* One superblock: the (already unrolled) segment path and its exit. *)
type trace = { pt_segs : seg array; pt_exit : int }

(* A plan: every superblock formed for one image, in formation order. *)
type t = trace list

let head (tr : trace) = tr.pt_segs.(0).ps_pc

(* --- Store configuration (CLI-owned, like Cache). --- *)

let namespace =
  Store.create ~name:"plan" ~ext:"plan" ~version
    ~dir:(Filename.concat "_tagsim_cache" "plan")

let enabled () = Store.enabled namespace
let set_enabled = Store.set_enabled namespace
let dir () = Store.dir namespace
let set_dir = Store.set_dir namespace

(* The store's hits/misses/writes count whole plan files;
   [loaded_traces] counts individual superblocks pre-compiled from
   loaded plans (the number a warm run starts with). *)
let loaded_traces = Atomic.make 0
let counters () = Store.counters namespace
let traces_loaded () = Atomic.get loaded_traces
let note_traces_loaded n = ignore (Atomic.fetch_and_add loaded_traces n)

let reset_counters () =
  Store.reset_counters namespace;
  Atomic.set loaded_traces 0

(* --- Keys. --- *)

(* The image's code array is pure data (decoded instructions, cycle
   annotations, speculation flags), so a [Marshal] digest is a faithful
   content fingerprint; the version stamp guards representation drift.
   [No_sharing] matters: the default marshaller encodes in-memory
   sharing, so structurally equal images — one compiled cold, one
   relinked from memoised objects — would fingerprint differently, and a
   warm process would never find the plans a cold one flushed. *)
let image_fingerprint (image : Image.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string image.Image.code [ Marshal.No_sharing ]))

let key ~fingerprint ~token = Store.key namespace [ fingerprint; token ]
let entry_path = Store.path namespace

(* --- (De)serialisation: the same line-oriented text format as the
   measurement store — stable across compiler versions, diffable, and
   truncation-detectable via the ["end"] trailer. --- *)

let jct_token = function
  | Cond { expect_taken = true; target } -> Printf.sprintf "ct %d" target
  | Cond { expect_taken = false; target } -> Printf.sprintf "cf %d" target
  | Jump { link = false } -> "j"
  | Jump { link = true } -> "jl"
  | Indirect { rs; link = false } -> Printf.sprintf "i %d" rs
  | Indirect { rs; link = true } -> Printf.sprintf "il %d" rs

let serialize (plan : t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "traces %d" (List.length plan);
  List.iter
    (fun tr ->
      line "trace %d %d" tr.pt_exit (Array.length tr.pt_segs);
      Array.iter
        (fun s ->
          line "seg %d %d %d %s" s.ps_pc s.ps_stop s.ps_next
            (jct_token s.ps_jct))
        tr.pt_segs)
    plan;
  line "end";
  Buffer.contents b

exception Malformed

let parse (text : string) : t =
  let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let int s = match int_of_string_opt s with Some v -> v | None -> raise Malformed in
  let lines = ref (String.split_on_char '\n' text) in
  let next () =
    match !lines with
    | l :: rest ->
        lines := rest;
        l
    | [] -> raise Malformed
  in
  let n =
    match fields (next ()) with
    | [ "traces"; n ] -> int n
    | _ -> raise Malformed
  in
  if n < 0 then raise Malformed;
  let seg_of_line l =
    match fields l with
    | "seg" :: pc :: stop :: nx :: jct ->
        let ps_jct =
          match jct with
          | [ "ct"; t ] -> Cond { expect_taken = true; target = int t }
          | [ "cf"; t ] -> Cond { expect_taken = false; target = int t }
          | [ "j" ] -> Jump { link = false }
          | [ "jl" ] -> Jump { link = true }
          | [ "i"; rs ] -> Indirect { rs = int rs; link = false }
          | [ "il"; rs ] -> Indirect { rs = int rs; link = true }
          | _ -> raise Malformed
        in
        { ps_pc = int pc; ps_stop = int stop; ps_jct; ps_next = int nx }
    | _ -> raise Malformed
  in
  let trace_of_lines () =
    match fields (next ()) with
    | [ "trace"; exit_pc; k ] ->
        let k = int k in
        if k < 0 then raise Malformed;
        let segs = Array.init k (fun _ -> seg_of_line (next ())) in
        { pt_segs = segs; pt_exit = int exit_pc }
    | _ -> raise Malformed
  in
  let plan = List.init n (fun _ -> trace_of_lines ()) in
  if String.trim (next ()) <> "end" then raise Malformed;
  plan

let load k = Store.load namespace k parse
let store k (plan : t) = Store.store namespace k serialize plan
let wipe () = Store.wipe namespace
