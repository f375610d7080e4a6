(** The profile-guided superblock trace engine: the hot tier of
    [`Traced].

    Cold code runs on the reference [Machine.step], with a per-leader
    entry-heat counter and a two-entry successor (edge) profile kept by
    the run loop.  When a leader crosses the hot threshold, {!form}
    grows a superblock along the dominant successor path: a bounded
    run of basic-block shapes ({!Fuse.shape}), each ending in a
    guardable junction — a conditional branch, a direct jump, or a
    register-indirect jump, all with compilable delay slots — and
    closed by a loop back-edge, an unguardable block, a cold or bimodal
    edge, or the length bound; a back-edge into the head closes the
    trace with the head as its exit, so a loop trace chains to itself.
    A single segment is a trace too, so a hot one-block loop leaves the
    interpreter.  The expected path is compiled by the engine's one
    instruction and branch-condition compilers ({!Fuse.compile_op},
    {!Fuse.cond_test}) into one instruction-level continuation chain
    whose statically-knowable statistics — including the cross-junction
    delay-slot interlocks and the annul accounting of squashing
    branches the path falls through — are pre-summed into a single
    delta counted once on trace entry (by id, in the running machine;
    [Machine.run] folds [count * delta] into [Stats] when it returns).

    Exactness comes from the guards.  Each junction that can leave the
    expected path compiles a side exit that (a) uncounts the pre-summed
    delta of everything that will now not execute (the off-path
    continuation of this junction plus every later segment), (b) refunds
    the corresponding pre-paid fuel, (c) performs whatever the off path
    genuinely does (run the annulled-on-path slots, charge the annul
    cycles of slots the path expected to run, latch the in-flight load
    register), and (d) hands the off-path pc back to the dispatch loop.
    Dynamic early exits inside the path (division by zero, checked-load
    type traps, resumable generic-arithmetic traps, memory faults) are
    {!Fuse.compile_op}'s own, with trace-wide undo deltas and fuel
    refunds.  The result is bit-identical {!Stats.t}, abort codes and
    fuel trajectory — [Out_of_fuel] tail included, because a trace
    pre-pays its retirements and the run loop steps its head instead
    when fuel runs short (enforced by the engine differential suite). *)

module M = Machine
module Insn = Tagsim_mipsx.Insn
module Reg = Tagsim_mipsx.Reg
module Image = Tagsim_asm.Image
module Metrics = Tagsim_metrics.Metrics

(* Entries before a leader is considered hot. *)
let default_threshold = 32

(* Superblock length bound, in blocks. *)
let max_segments = 64

(* A trace may be a single segment: the cold tier is the interpreter,
   so even a one-block loop gains from being compiled. *)
let min_segments = 1

(* How a trace segment ends, and which successor the path expects:
   a conditional branch guarded on its condition; J/Jal with a static
   successor, no guard; Jr/Jalr guarded on the latched jump target.
   Re-exported from [Plan] by type equation — the junction is the part
   of a grown segment that its trace plan records verbatim. *)
type jct = Plan.jct =
  | Cond of { expect_taken : bool; target : int }
  | Jump of { link : bool }
  | Indirect of { rs : int; link : bool }

type seg = {
  sg_pc : int; (* leader *)
  sg_stop : int; (* terminator address *)
  sg_len : int; (* body length (sg_stop - sg_pc) *)
  sg_term : Image.entry;
  sg_s1 : Image.entry; (* compiled delay slots *)
  sg_s2 : Image.entry;
  sg_squash : bool;
  sg_jct : jct;
  sg_next : int; (* expected successor leader (trace exit for the last) *)
  sg_prob : float; (* observed share of the expected successor *)
}

(* --- Growth. --- *)

(* Expected probability of reaching a segment before growth stops: the
   product of the observed junction shares along the path.  Growing
   past a junction only pays off if the path usually survives it; a
   junction that would drop the product below the cutoff still joins
   the trace as its final, guarded segment (a side exit at the last
   junction rolls back nothing), but nothing is grown beyond it. *)
let reach_cutoff = 0.5

(* The leading recorded successor of a junction, with its share of the
   recorded total.  The observation floor adapts to tiny test
   thresholds. *)
let dominant (ts : M.tstate) pc =
  let c1 = ts.M.ts_cnt1.(pc) and c2 = ts.M.ts_cnt2.(pc) in
  let s, c =
    if c1 >= c2 then (ts.M.ts_succ1.(pc), c1) else (ts.M.ts_succ2.(pc), c2)
  in
  let floor = min 4 (max 1 (ts.M.ts_threshold - 1)) in
  if s >= 0 && c >= floor then
    Some (s, float_of_int c /. float_of_int (c1 + c2))
  else None

type candidate = Seg of seg | No_dominant | Unfit

(* The share credited to a [Jr ra] whose return address the growth's
   call-return stack predicts: near-certain — the matching call is on
   the path, and the calling convention restores [ra] before the return
   — but guarded like any expected successor, so a program that returns
   somewhere else only side-exits. *)
let matched_return_prob = 0.99

(* Can the block led by [pc] be a trace segment, and where does its
   expected path go?  [ret] is the innermost unreturned call's return
   address, if the path crossed one — it beats the edge profile for
   [Jr ra], whose profile blurs every call site of the function
   together.  [Unfit] is structural (no junction, unfusible slots);
   [No_dominant] may resolve once more edge profile accumulates. *)
let segment_of (m : M.t) (ts : M.tstate) ~ret pc : candidate =
  let sh = Fuse.shape m pc in
  match (sh.Fuse.sh_term, sh.Fuse.sh_slots) with
  | Some e, Some (s1, s2) -> (
      let stop = sh.Fuse.sh_stop in
      let fall = stop + 3 in
      let mk ?(p = 1.0) jct next =
        Seg
          {
            sg_pc = pc;
            sg_stop = stop;
            sg_len = stop - pc;
            sg_term = e;
            sg_s1 = s1;
            sg_s2 = s2;
            sg_squash = sh.Fuse.sh_squash;
            sg_jct = jct;
            sg_next = next;
            sg_prob = p;
          }
      in
      match e.Image.insn with
      | Insn.J target -> mk (Jump { link = false }) target
      | Insn.Jal target -> mk (Jump { link = true }) target
      | Insn.B (_, target) | Insn.Bi (_, target) | Insn.Btag (_, target) -> (
          if target = fall then
            (* Degenerate branch-to-fall-through: with slots running
               either way there is nothing to guard; an annulling one
               still differs in accounting, so leave it to [step]. *)
            if sh.Fuse.sh_squash then Unfit
            else mk (Jump { link = false }) target
          else
            match dominant ts pc with
            | Some (d, p) when d = target ->
                mk ~p (Cond { expect_taken = true; target }) target
            | Some (d, p) when d = fall ->
                mk ~p (Cond { expect_taken = false; target }) fall
            | Some _ | None -> No_dominant)
      | Insn.Jr rs -> (
          match ret with
          | Some r when rs = Reg.ra ->
              mk ~p:matched_return_prob (Indirect { rs; link = false }) r
          | _ -> (
              match dominant ts pc with
              | Some (d, p) -> mk ~p (Indirect { rs; link = false }) d
              | None -> No_dominant))
      | Insn.Jalr rs -> (
          match dominant ts pc with
          | Some (d, p) -> mk ~p (Indirect { rs; link = true }) d
          | None -> No_dominant)
      | _ -> Unfit)
  | _ -> Unfit

(* Grow the superblock from [head] along expected successors.  Growth
   closes on a loop back-edge into the path, on a block that cannot be
   a segment, on a junction without a dominant successor, at
   [max_segments], or when the product of junction shares says the tail
   would rarely be reached ([reach_cutoff]).  A back-edge into the head
   closes like any other, with the head as the exit, so a whole loop
   body chains to itself through [tr_next].  [Ok] carries the segments
   and the exit pc; [Error retryable] reports a head not (yet) worth a
   trace. *)
let grow (m : M.t) (ts : M.tstate) head =
  let n = Array.length m.M.code in
  let leader = ts.M.ts_leader in
  (* [stack]: return addresses of calls crossed on the path and not yet
     returned from — the call-return hint for [Jr ra] junctions. *)
  let rec go acc count pc reach stack =
    let close retryable =
      if count >= min_segments && pc >= 0 && pc < n then
        Ok (Array.of_list (List.rev acc), pc)
      else Error retryable
    in
    if List.exists (fun s -> s.sg_pc = pc) acc then close false
    else if count = max_segments then close false
    else if reach < reach_cutoff then close false
    else if pc < 0 || pc >= n || not leader.(pc) then close false
    else
      let ret = match stack with r :: _ -> Some r | [] -> None in
      match segment_of m ts ~ret pc with
      | Unfit -> close false
      | No_dominant -> close true
      | Seg s ->
          let stack' =
            match s.sg_jct with
            | Jump { link = true } | Indirect { link = true; _ } ->
                (s.sg_stop + 3) :: stack
            | Indirect { link = false; rs } when rs = Reg.ra -> (
                match stack with _ :: rest -> rest | [] -> [])
            | _ -> stack
          in
          go (s :: acc) (count + 1) s.sg_next (reach *. s.sg_prob) stack'
  in
  go [] 0 head 1.0 []

(* --- Compilation. --- *)

(* Compile the expected path of [segs] into one continuation chain with
   one entry delta, building right to left so each junction knows the
   chain, the pre-summed statistics and the pre-paid fuel of everything
   after it.  The statistics come from one backward sweep: [acc] holds
   the expected-path units to the right of the point being compiled, so
   every undo and guard delta is a snapshot of it, and after the head
   it holds the entry delta.  Off-path slot deltas, which do not depend
   on the expected path, are swept through a second, scratch
   accumulator. *)
let compile_trace (m : M.t) ts (segs : seg array) exit_pc : M.trace =
  let hw = m.M.hw in
  let code = m.M.code in
  let acc = Fuse.acc_create () and scratch = Fuse.acc_create () in
  let snap a = M.register_delta m ts (Fuse.compress a) in
  let snap_unit u =
    Fuse.acc_clear scratch;
    Fuse.acc_add scratch u;
    snap scratch
  in
  let k = Array.length segs in
  let slots_run i =
    (* Annulled only when the expected path falls through a squashing
       branch. *)
    let s = segs.(i) in
    not
      (s.sg_squash
      && match s.sg_jct with Cond { expect_taken; _ } -> not expect_taken | _ -> false)
  in
  (* The cross-junction in-flight load reaching segment [i]'s first
     instruction — statically the previous junction's second delay slot
     (annulled slots leave none).  The trace entry keeps one dynamic
     probe instead. *)
  let cross_prev i =
    if i = 0 then None
    else if slots_run (i - 1) then Some segs.(i - 1).sg_s2
    else None
  in
  let steps_of i = segs.(i).sg_len + 1 in
  let total_steps = ref 0 in
  for i = 0 to k - 1 do
    total_steps := !total_steps + steps_of i
  done;
  (* [chain]: the continuation at the start of the segment after the one
     being compiled; seeded with the trace exit, which latches the
     expected path's in-flight load for the next dispatch. *)
  let final_pl =
    if slots_run (k - 1) then Fuse.exit_pl_of segs.(k - 1).sg_s2.Image.insn
    else -1
  in
  let chain =
    ref
      (fun (t : M.t) ->
        t.M.pending_load <- final_pl;
        exit_pc)
  in
  let refund_after = ref 0 in
  for i = k - 1 downto 0 do
    let s = segs.(i) in
    let l = s.sg_pc and len = s.sg_len and c = s.sg_stop in
    let ra_ref = !refund_after in
    let cont = !chain in
    (* Slot contributions independent of the expected path (the off path
       of an expected-fall squashing branch runs them even though the
       pre-sum holds the annul accounting instead). *)
    let sc1 = Fuse.contribution None s.sg_s1 in
    let sc2 = Fuse.contribution (Some s.sg_s1) s.sg_s2 in
    let post_pl = Fuse.exit_pl_of s.sg_s2.Image.insn in
    let si = Stats.slot s.sg_term.Image.annot in
    (* The slot pair flowing into [next], swept through [a]: each slot
       owes back what [a] holds when it is compiled, and both slots are
       left in [a]. *)
    let slot_pair a ~refund next =
      let s2op =
        Fuse.compile_op hw s.sg_s2 ~pc:c ~suffix:a ~snap ~refund ~next
      in
      Fuse.acc_add a sc2;
      let s1op =
        Fuse.compile_op hw s.sg_s1 ~pc:c ~suffix:a ~snap ~refund ~next:s2op
      in
      Fuse.acc_add a sc1;
      s1op
    in
    (* On-path slot chain: an in-slot dynamic exit undoes the slot
       remainder and every later segment (the slots ride the junction's
       retirement, so only later segments' fuel is refunded). *)
    let on_slots cont2 = slot_pair acc ~refund:ra_ref cont2 in
    (* Off-path slot chain: runs after a guard already rolled back every
       later segment, with the slot pair's own statistics in force, so
       an in-slot exit owes only the unexecuted slot remainder; leaves
       the pair in [scratch]. *)
    let off_slots pc_off =
      Fuse.acc_clear scratch;
      slot_pair scratch ~refund:0 (fun (t : M.t) ->
          t.M.pending_load <- post_pl;
          pc_off)
    in
    (* Each junction leaves the sweep holding this segment's slots (or
       its annul accounting) on top of the later segments. *)
    let jchain : Fuse.chain_fn =
      match s.sg_jct with
      | Jump { link } ->
          let base = on_slots cont in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.regs.(Reg.ra) <- ra_v;
              base t
          else base
      | Indirect { rs; link } ->
          (* Slots run before the target is known; the guard then tests
             the latched target against the expected successor. *)
          let expected = s.sg_next in
          let d_suffix = snap acc in
          let guard (t : M.t) =
            if t.M.jump_target = expected then cont t
            else begin
              Fuse.count d_suffix (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              t.M.pending_load <- post_pl;
              t.M.jump_target
            end
          in
          let ch = on_slots guard in
          if link then
            let ra_v = c + 3 in
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              t.M.regs.(Reg.ra) <- ra_v;
              ch t
          else
            fun t ->
              t.M.jump_target <- t.M.regs.(rs);
              ch t
      | Cond { expect_taken; target } ->
          let fall = c + 3 in
          let pc_off = if expect_taken then fall else target in
          let test = Fuse.cond_test hw s.sg_term in
          if not s.sg_squash then begin
            (* Slots run on both paths with identical statistics; the
               side exit only owes the later segments. *)
            let d_suffix = snap acc in
            let on = on_slots cont in
            let off_chain = off_slots pc_off in
            let off (t : M.t) =
              Fuse.count d_suffix (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              off_chain t
            in
            if expect_taken then fun t -> if test t then on t else off t
            else fun t -> if test t then off t else on t
          end
          else if expect_taken then begin
            (* Expected taken: slot statistics are pre-summed; falling
               through annuls them — undo slots and later segments, then
               charge the annul cycles the reference charges. *)
            let on = on_slots cont in
            let d_undo = snap acc in
            let d_annul = snap_unit (Fuse.squash_stat si) in
            let off (t : M.t) =
              Fuse.count d_undo (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              Fuse.count d_annul 1 t;
              t.M.pending_load <- -1;
              fall
            in
            fun t -> if test t then on t else off t
          end
          else begin
            (* Expected fall-through: the annul accounting is pre-summed
               and the path continues with nothing dynamic; taking the
               branch undoes it (and the later segments), then runs the
               slots for real — applying their statistics first, since
               the pre-sum deliberately left them out. *)
            Fuse.acc_add acc (Fuse.squash_stat si);
            let d_undo = snap acc in
            let off_chain = off_slots target in
            let d_slots = snap scratch in
            let off (t : M.t) =
              Fuse.count d_undo (-1) t;
              if ra_ref <> 0 then t.M.fuel <- t.M.fuel + ra_ref;
              Fuse.count d_slots 1 t;
              off_chain t
            in
            fun t -> if test t then off t else cont t
          end
    in
    (* The terminator, then the body threaded into the junction,
       innermost first. *)
    Fuse.acc_add acc
      (Fuse.contribution
         (if len > 0 then Some code.(c - 1) else cross_prev i)
         s.sg_term);
    let body = ref jchain in
    for u = len - 1 downto 0 do
      let e = code.(l + u) in
      body :=
        Fuse.compile_op hw e ~pc:(l + u) ~suffix:acc ~snap
          ~refund:(len - u + ra_ref) ~next:!body;
      Fuse.acc_add acc
        (Fuse.contribution
           (if u = 0 then cross_prev i else Some code.(l + u - 1))
           e)
    done;
    chain := !body;
    refund_after := ra_ref + steps_of i
  done;
  let head = segs.(0).sg_pc in
  let d_entry = snap acc in
  let body0 = !chain in
  (* The one dynamic interlock probe: the trace's first instruction
     against a load in flight from whatever ran before it. *)
  let er1, er2 = Fuse.read_regs code.(head).Image.insn in
  let exec =
    if er1 < 0 && er2 < 0 then fun (t : M.t) ->
      Fuse.count d_entry 1 t;
      body0 t
    else
      let d_probe = snap_unit Fuse.interlock_stat in
      fun (t : M.t) ->
        let pl = t.M.pending_load in
        if pl >= 0 && (pl = er1 || pl = er2) then Fuse.count d_probe 1 t;
        Fuse.count d_entry 1 t;
        body0 t
  in
  {
    M.tr_pc = head;
    M.tr_steps = !total_steps;
    M.tr_exit = exit_pc;
    M.tr_exec = exec;
    M.tr_next = None;
  }

(* --- Plans: the pure-data projection of a grown superblock. --- *)

(* Everything [compile_trace] consumes beyond the planned skeleton —
   instruction entries, body lengths, squash flags — is a function of
   the image, so the projection keeps only the path decisions. *)
let plan_of_segs (segs : seg array) exit_pc : Plan.trace =
  {
    Plan.pt_segs =
      Array.map
        (fun s ->
          {
            Plan.ps_pc = s.sg_pc;
            ps_stop = s.sg_stop;
            ps_jct = s.sg_jct;
            ps_next = s.sg_next;
          })
        segs;
    pt_exit = exit_pc;
  }

(* --- Formation (called by the run loop at the hot threshold). --- *)

let formed = Metrics.counter "trace.formed"
let form_s = Metrics.counter "trace.form_s"
let form_words = Metrics.counter "trace.form_words"

(* Formation is timed and its allocation counted for the [traces:]
   diagnostics; [Gc.minor_words] is per domain, so the difference is
   this call's own allocation even while other domains run. *)
let form (t : M.t) head =
  match t.M.tstate with
  | None -> ()
  | Some ts ->
      if ts.M.ts_traces.(head) = None then
        Metrics.time form_s (fun () ->
            let w0 = Gc.minor_words () in
            (match grow t ts head with
            | Ok (segs, exit_pc) ->
                ts.M.ts_traces.(head) <- Some (compile_trace t ts segs exit_pc);
                ts.M.ts_plans <- plan_of_segs segs exit_pc :: ts.M.ts_plans;
                Metrics.add formed 1
            | Error retryable ->
                (* Retryable heads re-arm the heat counter and try again
                   once more edge profile has accumulated; structural
                   failures stay saturated so the check never repeats. *)
                if retryable then ts.M.ts_heat.(head) <- 0);
            Metrics.add form_words (int_of_float (Gc.minor_words () -. w0)))

(* --- Attachment. --- *)

let attach ?(threshold = default_threshold) (m : M.t) =
  let n = Array.length m.M.code in
  match m.M.tstate with
  | Some _ -> ()
  | None ->
      m.M.tstate <-
        Some
          {
            M.ts_leader = Fuse.leaders m;
            M.ts_traces = Array.make n None;
            M.ts_heat = Array.make n 0;
            M.ts_succ1 = Array.make n (-1);
            M.ts_cnt1 = Array.make n 0;
            M.ts_succ2 = Array.make n (-1);
            M.ts_cnt2 = Array.make n 0;
            M.ts_threshold = threshold;
            M.ts_form = form;
            M.ts_plans = [];
            M.ts_dirty = false;
            M.ts_deltas = [||];
            M.ts_ndeltas = 0;
          }
