(* The counter registry (see metrics.mli).  Hot loops batch in locals
   and flush with one [add], so no atomic is touched per simulated
   instruction. *)

type t = { name : string; v : int Atomic.t }

(* Newest first.  Registration is rare (module initialisation), so a
   compare-and-set retry is all the locking it needs. *)
let registry : t list Atomic.t = Atomic.make []

let rec counter name =
  let l = Atomic.get registry in
  match List.find_opt (fun c -> c.name = name) l with
  | Some c -> c
  | None ->
      let c = { name; v = Atomic.make 0 } in
      if Atomic.compare_and_set registry l (c :: l) then c else counter name

let add c n = ignore (Atomic.fetch_and_add c.v n)
let get c = Atomic.get c.v
let seconds c = float_of_int (get c) *. 1e-9

let time c f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      add c (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)))
    f

let snapshot () =
  List.rev_map (fun c -> (c.name, get c)) (Atomic.get registry)

let reset () = List.iter (fun c -> Atomic.set c.v 0) (Atomic.get registry)
