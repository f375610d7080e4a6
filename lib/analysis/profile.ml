(** A flat execution profiler: attributes every cycle to the function
    whose code region the program counter is in — user functions
    ([f$...]), runtime routines ([rt$...]) and the collector ([gc$...]).
    This is how one verifies claims like "dedgc spends half its time in
    the collector" at function granularity. *)

module Machine = Tagsim_sim.Machine
module Stats = Tagsim_sim.Stats
module Image = Tagsim_asm.Image
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sched = Tagsim_asm.Sched
module Program = Tagsim_compiler.Program
module Registry = Tagsim_programs.Registry

type row = { label : string; cycles : int; share : float }

(* Function-granularity regions: the startup block plus every label with
   a function-like prefix, each owning the addresses up to the next
   region. *)
let regions (image : Image.t) =
  let named =
    Hashtbl.fold
      (fun name addr acc ->
        let keep =
          String.length name > 2
          && (String.sub name 0 2 = "f$"
             || (String.length name > 3 && String.sub name 0 3 = "rt$")
             || (String.length name > 3 && String.sub name 0 3 = "gc$"))
        in
        if keep then (addr, name) :: acc else acc)
      image.Image.code_symbols []
  in
  let sorted = List.sort compare ((0, "startup") :: named) in
  Array.of_list sorted

let region_of regions pc =
  (* Greatest region start <= pc. *)
  let n = Array.length regions in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if fst regions.(mid) <= pc then search mid hi else search lo (mid - 1)
  in
  snd regions.(search 0 (n - 1))

let measure ?(sched = Sched.default) ~scheme ~support
    (entry : Registry.entry) =
  let program =
    Program.compile ~sched ~sizes:entry.Registry.sizes ~scheme ~support
      entry.Registry.source
  in
  let m, _map = Program.load ~engine:`Reference program in
  let regs = regions program.Program.image in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec loop last_cycles =
    let here = region_of regs (Machine.pc m) in
    Machine.step m;
    let now = (Machine.stats m).Stats.cycles in
    Hashtbl.replace counts here
      ((try Hashtbl.find counts here with Not_found -> 0) + now - last_cycles);
    match Machine.outcome m with Some _ -> () | None -> loop now
  in
  loop 0;
  let total = (Machine.stats m).Stats.cycles in
  (* Descending by cycles, with the label breaking ties: the fold's
     hash order must not leak into the report. *)
  Hashtbl.fold (fun label cycles acc -> (label, cycles) :: acc) counts []
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> compare la lb | c -> c)
  |> List.map (fun (label, cycles) ->
         { label; cycles; share = 100.0 *. float_of_int cycles /. float_of_int total })

let pp ppf rows =
  Fmt.pf ppf "%-28s %10s %8s@\n" "function" "cycles" "share";
  List.iter
    (fun r ->
      if r.share >= 0.05 then
        Fmt.pf ppf "%-28s %10d %7.2f%%@\n" r.label r.cycles r.share)
    rows
