(** Delay-slot scheduling.

    MIPS-X branches have two delay slots; loads have a one-cycle use delay.
    The code generator emits branch instructions with no slots; this pass
    rewrites the stream so that every branch or jump is followed by exactly
    two slot instructions, filled as a period compiler would:

    - {b hoisting}: the instructions immediately preceding the branch are
      moved into its slots when they do not feed the branch condition;
    - {b fall-through filling}: branches marked [Unlikely] (run-time error
      checks, which either fall through or abort) get remaining slots from
      the fall-through path, so the checked operation overlaps its own check
      (Section 6.2.1: "an operation and its tag check will happen
      concurrently ... if the operation is moved in a delayed slot of the
      branch").  Memory operations moved this way are marked speculative:
      on the error path they may touch a garbage address before the program
      aborts, and the simulator ignores such faults;
    - {b squashing}: branches marked [Likely] (loop back-edges) become
      squashing branches whose slots hold copies of the first instructions
      of the target block; when the branch is not taken the slots are
      annulled and counted as squashed cycles (Figure 2).

    Unfilled slots become no-ops.  A no-op sitting in the slot of a
    tag-checking branch inherits the branch's annotation, because the paper
    charges unused delay slots to the cost of tag checking (Section 3.4). *)

module Insn = Tagsim_mipsx.Insn
module Annot = Tagsim_mipsx.Annot
module Reg = Tagsim_mipsx.Reg

type config = {
  hoist : bool;
  fill_unlikely : bool;
  squash_likely : bool;
}

let default = { hoist = true; fill_unlikely = true; squash_likely = true }
let off = { hoist = false; fill_unlikely = false; squash_likely = false }

(* An output cell; [barrier] stops the hoisting window (labels, control
   instructions and already-placed slot instructions are barriers). *)
type cell = { item : Buf.item; barrier : bool }

let needs_slots (insn : string Insn.t) =
  match insn with
  | Insn.B _ | Insn.Bi _ | Insn.Btag _ | Insn.J _ | Insn.Jal _ | Insn.Jr _
  | Insn.Jalr _ ->
      true
  | Insn.Alu _ | Insn.Alui _ | Insn.Li _ | Insn.La _ | Insn.Mv _ | Insn.Ld _
  | Insn.St _ | Insn.Add_gen _ | Insn.Sub_gen _ | Insn.Settd _ | Insn.Rett
  | Insn.Trap _ | Insn.Halt | Insn.Nop ->
      false

let branch_hint (insn : string Insn.t) =
  match insn with
  | Insn.B (b, _) -> b.Insn.hint
  | Insn.Bi (b, _) -> b.Insn.bi_hint
  | Insn.Btag (b, _) -> b.Insn.bt_hint
  | _ -> Insn.No_hint

let branch_target (insn : string Insn.t) =
  match insn with
  | Insn.B (_, l) | Insn.Bi (_, l) | Insn.Btag (_, l) -> Some l
  | _ -> None

(* Registers that must not be written by a hoisted instruction: the branch
   sources, plus [ra] for jumps that read or write it. *)
let protected_regs (insn : string Insn.t) =
  let base = Insn.reads insn in
  match insn with
  | Insn.Jal _ | Insn.Jalr _ -> Reg.ra :: base
  | _ -> base

let hoistable ~protect ~protect_reads (s : Buf.slot) =
  (not (Insn.is_control s.insn))
  && (not (Insn.may_trap s.insn))
  && (not s.speculative)
  && s.insn <> Insn.Nop
  && (match Insn.writes s.insn with
     | None -> true
     | Some rd -> not (List.mem rd protect))
  && not (List.exists (fun r -> List.mem r protect_reads) (Insn.reads s.insn))

(* Instructions safe to pull from the fall-through path of a branch that
   is rarely taken; they execute even when the branch IS taken, so what
   is allowed depends on the taken path:

   - [Unlikely]: the taken path aborts or re-executes the fall-through
     (the allocation retry), so stores are fine too; writes to registers
     the collector treats as roots are not (a stale speculative value
     must never become a root);
   - [Slow_path]: the taken path resumes after recomputing the result,
     so only register work the slow path overwrites anyway may move:
     no memory effects, no root writes. *)
let fallthrough_safe ~hint (s : Buf.slot) =
  (not (Insn.is_control s.insn))
  && (not (Insn.may_trap s.insn))
  && s.insn <> Insn.Nop
  && (hint <> Insn.Slow_path || not (Insn.has_memory_effect s.insn))
  && (match Insn.writes s.insn with
     | None -> true
     | Some r -> not (List.mem r Reg.gc_roots))

let slot_annot (branch_annot : Annot.t) =
  match branch_annot.Annot.kind with
  | Annot.Check _ | Annot.Extract _ | Annot.Garith | Annot.Alloc
  | Annot.Gc_work ->
      branch_annot
  | Annot.Plain | Annot.Insert | Annot.Remove | Annot.Slot_fill ->
      Annot.make Annot.Slot_fill

let make_speculative (s : Buf.slot) =
  if Insn.has_memory_effect s.insn then { s with speculative = true } else s

(* --- Pass A: slot every control instruction. --- *)

let pass_a config (input : Buf.item list) : Buf.item list =
  let out : cell list ref = ref [] in
  let push ?(barrier = false) item = out := { item; barrier } :: !out in
  (* Take up to [n] hoistable instructions from the end of the current
     block; returns them in program order and removes them from [out]. *)
  let take_hoisted n protect protect_reads =
    if not config.hoist then []
    else
      let rec loop acc n l =
        match l with
        | { item = Buf.I s; barrier = false } :: rest
          when n > 0 && hoistable ~protect ~protect_reads s ->
            loop (s :: acc) (n - 1) rest
        | _ ->
            out := l;
            acc
      in
      loop [] n !out
  in
  let rec go input =
    match input with
    | [] -> ()
    | (Buf.L _ as item) :: rest ->
        push ~barrier:true item;
        go rest
    | (Buf.C _ as item) :: rest ->
        push item;
        go rest
    | (Buf.I s as item) :: rest when not (needs_slots s.insn) ->
        push item;
        go rest
    | (Buf.I branch as item) :: rest ->
        let protect = protected_regs branch.insn in
        let protect_reads =
          (* [jal] writes [ra] before the slots execute, so a hoisted
             instruction must not read the old value. *)
          match branch.insn with
          | Insn.Jal _ | Insn.Jalr _ -> [ Reg.ra ]
          | _ -> []
        in
        let hoisted = take_hoisted 2 protect protect_reads in
        push ~barrier:true item;
        List.iter (fun s -> push ~barrier:true (Buf.I s)) hoisted;
        let filled = List.length hoisted in
        let want = 2 - filled in
        let hint = branch_hint branch.insn in
        let rest, pulled =
          if
            want > 0 && config.fill_unlikely
            && (hint = Insn.Unlikely || hint = Insn.Slow_path)
          then
            let rec pull acc n l =
              match l with
              | Buf.I s :: tl when n > 0 && fallthrough_safe ~hint s ->
                  pull (make_speculative s :: acc) (n - 1) tl
              | _ -> (l, List.rev acc)
            in
            pull [] want rest
          else (rest, [])
        in
        List.iter (fun s -> push ~barrier:true (Buf.I s)) pulled;
        let missing = 2 - filled - List.length pulled in
        for _ = 1 to missing do
          push ~barrier:true
            (Buf.I
               {
                 insn = Insn.Nop;
                 annot = slot_annot branch.annot;
                 speculative = false;
               })
        done;
        go rest
  in
  go input;
  List.rev_map (fun c -> c.item) !out

(* --- Pass B: squashing branches filled from their target. --- *)

(* For each [Likely] branch whose two slots are no-ops, copy the first one
   or two instructions of the target block into the slots, turn the branch
   into a squashing branch, and retarget it past the copied instructions
   (via a fresh label inserted after them, shared by every branch to the
   same block).  Two sweeps: the first decides every rewrite, the second
   emits, because a back-edge's split label lands before its branch. *)

let squash lbl (insn : string Insn.t) =
  match insn with
  | Insn.B (b, _) -> Insn.B ({ b with Insn.squash = true }, lbl)
  | Insn.Bi (b, _) -> Insn.Bi ({ b with Insn.bi_squash = true }, lbl)
  | Insn.Btag (b, _) -> Insn.Btag ({ b with Insn.bt_squash = true }, lbl)
  | other -> other

let pass_b buf_fresh (items : Buf.item list) : Buf.item list =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let pos = Hashtbl.create 64 in
  Array.iteri
    (fun i item ->
      match item with Buf.L l -> Hashtbl.replace pos l i | Buf.I _ | Buf.C _ -> ())
    arr;
  let nop k =
    k < n && match arr.(k) with Buf.I s -> s.insn = Insn.Nop | _ -> false
  in
  let copyable k =
    k < n
    &&
    match arr.(k) with
    | Buf.I s ->
        (not (Insn.is_control s.insn)) && s.insn <> Insn.Nop
        && not s.speculative
    | Buf.L _ | Buf.C _ -> false
  in
  let rec first_insn j =
    match arr.(j) with
    | (Buf.C _ | Buf.L _) when j + 1 < n -> first_insn (j + 1)
    | Buf.C _ | Buf.L _ -> n
    | Buf.I _ -> j
  in
  (* [rewrites]: [(i, items)], latest first: the branch at [i] and its
     two no-op slots become [items].  [splits]: [(k, label)]: [label] is
     placed after the copied [arr.(k)].  Both are few: one per rewritten
     back-edge. *)
  let rewrites = ref [] and splits = ref [] in
  Array.iteri
    (fun i item ->
      match item with
      | Buf.I s
        when branch_hint s.insn = Insn.Likely && nop (i + 1) && nop (i + 2)
        -> (
          match Option.bind (branch_target s.insn) (Hashtbl.find_opt pos) with
          | None -> ()
          | Some at ->
              let start = first_insn at in
              let count =
                if not (copyable start) then 0
                else if copyable (start + 1) then 2
                else 1
              in
              if count > 0 then begin
                let last = start + count - 1 in
                let lbl =
                  match List.assoc_opt last !splits with
                  | Some l -> l
                  | None ->
                      let l = buf_fresh "sq" in
                      splits := (last, l) :: !splits;
                      l
                in
                let second =
                  if count = 2 then arr.(start + 1)
                  else
                    Buf.I
                      { insn = Insn.Nop; annot = slot_annot s.annot;
                        speculative = false }
                in
                rewrites :=
                  (i, [ Buf.I { s with insn = squash lbl s.insn }; arr.(start);
                        second ])
                  :: !rewrites
              end)
      | _ -> ())
    arr;
  let rec emit i rewrites splits acc =
    if i >= n then List.rev acc
    else
      match (rewrites, splits) with
      | (j, r) :: rewrites, _ when j = i ->
          emit (i + 3) rewrites splits (List.rev_append r acc)
      | _, (j, l) :: splits when j = i ->
          emit (i + 1) rewrites splits (Buf.L l :: arr.(i) :: acc)
      | _ -> emit (i + 1) rewrites splits (arr.(i) :: acc)
  in
  let by_index (a, _) (b, _) = Int.compare a b in
  emit 0 (List.rev !rewrites) (List.sort by_index !splits) []

let run ?(config = default) ~fresh items =
  let a = pass_a config items in
  if config.squash_likely then pass_b fresh a else a
