(** Execution statistics: cycles classified by annotation (Section 3 of the
    paper) and instruction frequencies classified by instruction class
    (Figure 2). *)

module Annot = Tagsim_mipsx.Annot
module Insn = Tagsim_mipsx.Insn

(* Dense code for annotation kinds. *)
let kind_code (k : Annot.kind) =
  match k with
  | Annot.Plain -> 0
  | Annot.Insert -> 1
  | Annot.Remove -> 2
  | Annot.Extract s -> 3 + Annot.source_index s
  | Annot.Check s -> 9 + Annot.source_index s
  | Annot.Garith -> 15
  | Annot.Alloc -> 16
  | Annot.Gc_work -> 17
  | Annot.Slot_fill -> 18

let n_kind_codes = 19

type t = {
  mutable cycles : int;
  mutable insns : int; (* executed instructions, including slot no-ops *)
  kind_cycles : int array; (* [n_kind_codes * 2]: (kind, checking) *)
  klass_insns : int array; (* Insn.n_klasses *)
  mutable squashed : int; (* annulled slot instructions (cycles) *)
  mutable interlocks : int; (* load-use interlock cycles *)
  mutable traps : int;
  mutable trap_cycles : int;
}

let create () =
  {
    cycles = 0;
    insns = 0;
    kind_cycles = Array.make (n_kind_codes * 2) 0;
    klass_insns = Array.make Insn.n_klasses 0;
    squashed = 0;
    interlocks = 0;
    traps = 0;
    trap_cycles = 0;
  }

let clear t =
  t.cycles <- 0;
  t.insns <- 0;
  Array.fill t.kind_cycles 0 (Array.length t.kind_cycles) 0;
  Array.fill t.klass_insns 0 (Array.length t.klass_insns) 0;
  t.squashed <- 0;
  t.interlocks <- 0;
  t.traps <- 0;
  t.trap_cycles <- 0

let slot_of code checking = (code * 2) + if checking then 1 else 0
let slot (a : Annot.t) = slot_of (kind_code a.Annot.kind) a.Annot.checking

let charge_slot t si cycles =
  t.cycles <- t.cycles + cycles;
  t.kind_cycles.(si) <- t.kind_cycles.(si) + cycles

let charge t (a : Annot.t) cycles = charge_slot t (slot a) cycles

let count_insn t klass =
  t.insns <- t.insns + 1;
  let i = Insn.klass_index klass in
  t.klass_insns.(i) <- t.klass_insns.(i) + 1

(* A load-use dependence costs one no-op cycle, as if the assembler had
   inserted a delay no-op (counted in the no-op class, as in Figure 2). *)
let interlock t =
  t.cycles <- t.cycles + 1;
  t.interlocks <- t.interlocks + 1;
  count_insn t Insn.K_nop

(* The two annulled delay slots of a squashing branch not taken: their
   cycles are charged to the branch's annotation and counted squashed. *)
let annul t (a : Annot.t) =
  t.squashed <- t.squashed + 2;
  charge t a 2

(* A resumable generic-arithmetic trap: its fixed overhead is charged to
   generic arithmetic, in the trapping instruction's checking half. *)
let trap t ~checking overhead =
  t.traps <- t.traps + 1;
  t.trap_cycles <- t.trap_cycles + overhead;
  charge_slot t (slot_of (kind_code Annot.Garith) checking) overhead

(** Accumulate [src] into [dst]; used when combining the measurements of
    partitioned work (e.g. the parallel experiment pool). *)
let merge dst src =
  dst.cycles <- dst.cycles + src.cycles;
  dst.insns <- dst.insns + src.insns;
  Array.iteri
    (fun i v -> dst.kind_cycles.(i) <- dst.kind_cycles.(i) + v)
    src.kind_cycles;
  Array.iteri
    (fun i v -> dst.klass_insns.(i) <- dst.klass_insns.(i) + v)
    src.klass_insns;
  dst.squashed <- dst.squashed + src.squashed;
  dst.interlocks <- dst.interlocks + src.interlocks;
  dst.traps <- dst.traps + src.traps;
  dst.trap_cycles <- dst.trap_cycles + src.trap_cycles

let equal a b =
  a.cycles = b.cycles && a.insns = b.insns
  && a.kind_cycles = b.kind_cycles
  && a.klass_insns = b.klass_insns
  && a.squashed = b.squashed
  && a.interlocks = b.interlocks
  && a.traps = b.traps
  && a.trap_cycles = b.trap_cycles

(* Every cycle is charged to one annotation slot or is an interlock, and
   every instruction is counted in one class. *)
let broken_law t =
  let sum = Array.fold_left ( + ) 0 in
  let kinds = sum t.kind_cycles and klasses = sum t.klass_insns in
  if t.cycles <> kinds + t.interlocks then
    Some
      (Printf.sprintf "cycles = kind cycles + interlocks (%d <> %d + %d)"
         t.cycles kinds t.interlocks)
  else if t.insns <> klasses then
    Some (Printf.sprintf "insns = class counts (%d <> %d)" t.insns klasses)
  else None

(* --- Sparse deltas.  [0..5] hold the cycle, instruction, interlock,
   squashed-slot, trap and trap-cycle totals, [6] the index just past
   the kind-counter pairs, and the rest are (index, amount) pairs of the
   non-zero counters, kind cycles first and class counts after. --- *)

type delta = int array

let count_nonzero arr =
  let n = ref 0 in
  for i = 0 to Array.length arr - 1 do
    if Array.unsafe_get arr i <> 0 then incr n
  done;
  !n

(* Write [arr]'s non-zero slots into [d] as pairs from [pos] on. *)
let fill_pairs d pos arr =
  let p = ref pos in
  for i = 0 to Array.length arr - 1 do
    let v = Array.unsafe_get arr i in
    if v <> 0 then begin
      d.(!p) <- i;
      d.(!p + 1) <- v;
      p := !p + 2
    end
  done

let compress t : delta =
  let kind_end = 7 + (2 * count_nonzero t.kind_cycles) in
  let d = Array.make (kind_end + (2 * count_nonzero t.klass_insns)) 0 in
  d.(0) <- t.cycles;
  d.(1) <- t.insns;
  d.(2) <- t.interlocks;
  d.(3) <- t.squashed;
  d.(4) <- t.traps;
  d.(5) <- t.trap_cycles;
  d.(6) <- kind_end;
  fill_pairs d 7 t.kind_cycles;
  fill_pairs d kind_end t.klass_insns;
  d

let fold_delta t (d : delta) n =
  t.cycles <- t.cycles + (n * d.(0));
  t.insns <- t.insns + (n * d.(1));
  t.interlocks <- t.interlocks + (n * d.(2));
  t.squashed <- t.squashed + (n * d.(3));
  t.traps <- t.traps + (n * d.(4));
  t.trap_cycles <- t.trap_cycles + (n * d.(5));
  let rec pairs i =
    if i < Array.length d then begin
      let a = if i < d.(6) then t.kind_cycles else t.klass_insns in
      a.(d.(i)) <- a.(d.(i)) + (n * d.(i + 1));
      pairs (i + 2)
    end
  in
  pairs 7

(* --- Accessors used by the analysis layer. --- *)

let total t = t.cycles
let executed_insns t = t.insns

(** Cycles charged to a kind.  [checking] selects instructions that exist
    only because run-time checking is on ([Some true]), only base
    instructions ([Some false]), or both ([None]). *)
let kind ?checking t (k : Annot.kind) =
  let c = kind_code k in
  match checking with
  | Some true -> t.kind_cycles.((c * 2) + 1)
  | Some false -> t.kind_cycles.(c * 2)
  | None -> t.kind_cycles.(c * 2) + t.kind_cycles.((c * 2) + 1)

let sum_kinds ?checking t kinds =
  List.fold_left (fun acc k -> acc + kind ?checking t k) 0 kinds

let insertion ?checking t = kind ?checking t Annot.Insert
let removal ?checking t = kind ?checking t Annot.Remove

let extraction ?checking t =
  sum_kinds ?checking t
    (List.map (fun s -> Annot.Extract s) Annot.all_sources)

(** Cycles of the compare-and-branch part of checks (excluding extraction);
    the paper's "tag checking" cost is [extraction + check_only]. *)
let check_only ?checking ?source t =
  match source with
  | Some s -> kind ?checking t (Annot.Check s)
  | None ->
      sum_kinds ?checking t
        (List.map (fun s -> Annot.Check s) Annot.all_sources)

let extraction_of ?checking t s = kind ?checking t (Annot.Extract s)

(** Full tag-checking cost for a source: extraction plus compare/branch. *)
let checking_of ?checking t s =
  extraction_of ?checking t s + kind ?checking t (Annot.Check s)

let tag_checking ?checking t = extraction ?checking t + check_only ?checking t
let generic_arith ?checking t = kind ?checking t Annot.Garith
let alloc t = kind t Annot.Alloc
let gc t = kind t Annot.Gc_work

let klass_count t k = t.klass_insns.(Insn.klass_index k)

let pp ppf t =
  Fmt.pf ppf
    "@[<v>cycles %d (insns %d, squashed %d, interlocks %d, traps %d)@,\
     insert %d  remove %d  extract %d  check %d  garith %d  alloc %d  gc %d@]"
    t.cycles t.insns t.squashed t.interlocks t.traps (insertion t)
    (removal t) (extraction t) (check_only t) (generic_arith t) (alloc t)
    (gc t)
