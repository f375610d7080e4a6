(* In-memory spans around calls into the library's layers.

   Each domain appends to its own buffer (no lock on the hot path); a
   buffer registers itself once, under a lock, when its domain records
   its first span, so the main domain can collect every buffer after the
   pool has joined.  A span records its layer name, the request it
   serves (a configuration key or a fuzz program index), its parent
   span on the same domain, wall-clock bounds and the words the domain
   allocated meanwhile. *)

type t = {
  dom : int;
  id : int;
  parent : int; (* -1 at the top of a domain's stack *)
  name : string;
  req : string;
  t0 : float;
  t1 : float;
  words : float;
}

type buf = {
  b_dom : int;
  mutable b_next : int;
  mutable b_stack : int list;
  mutable b_spans : t list;
}

let registry = ref []
let registry_mutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_dom = (Domain.self () :> int);
          b_next = 0;
          b_stack = [];
          b_spans = [];
        }
      in
      Mutex.protect registry_mutex (fun () -> registry := b :: !registry);
      b)

(* Words allocated by the calling domain so far. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ?(req = "") name f =
  let b = Domain.DLS.get key in
  let id = b.b_next in
  b.b_next <- id + 1;
  let parent = match b.b_stack with p :: _ -> p | [] -> -1 in
  b.b_stack <- id :: b.b_stack;
  let w0 = words () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      b.b_stack <- List.tl b.b_stack;
      b.b_spans <-
        { dom = b.b_dom; id; parent; name; req; t0; t1; words = words () -. w0 }
        :: b.b_spans)
    f

(* Every span recorded so far, all domains, in start order. *)
let all () =
  Mutex.protect registry_mutex (fun () -> !registry)
  |> List.concat_map (fun b -> b.b_spans)
  |> List.sort (fun a b -> compare (a.t0, a.dom, a.id) (b.t0, b.dom, b.id))

(* Per layer: [(name, (self seconds, calls, self words))].  A span's self
   time is its duration minus the durations of its direct children;
   likewise for words. *)
let self_totals spans =
  let child_s = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let k = (s.dom, s.parent) in
        let add tbl v =
          Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
        in
        add child_s (s.t1 -. s.t0);
        add child_w s.words
      end)
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = (s.dom, s.id) in
      let find tbl = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
      let self = s.t1 -. s.t0 -. find child_s and w = s.words -. find child_w in
      let s0, n0, w0 =
        Option.value ~default:(0., 0, 0.) (Hashtbl.find_opt totals s.name)
      in
      Hashtbl.replace totals s.name (s0 +. self, n0 + 1, w0 +. w))
    spans;
  totals

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "dom\tid\tparent\tname\treq\tstart_s\tend_s\twords\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.6f\t%.6f\t%.0f\n" s.dom s.id
            s.parent s.name s.req s.t0 s.t1 s.words)
        spans)
