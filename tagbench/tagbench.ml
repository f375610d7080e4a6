(* One benchmark pass in a fresh process (driven by run.py).

     tagbench.exe pass --workload plan|fuzz --dir DIR [--jobs N]
       [--only A,B] [--seed S] [--count N] [--trace]

   The pass sets up its starting state (stores under DIR, enabled as
   [tagsim experiments] enables them), prints "ready" and waits for one
   line on stdin: "go" runs the work, anything else exits at once (a
   set-up-only sample).  The work is

   - [plan]: the planner fan-out over the requested artifacts (all of
     them by default) at [--jobs], rendered to DIR/results.json;
   - [fuzz]: the fuzz campaign of [--count] programs from
     [--seed] over the smoke matrix, verdicts to DIR/verdicts.txt.

   With [--trace] the work is the traced replica of the same path
   (Replica), and the spans go to DIR/spans.tsv.  Counters and, when
   traced, per-layer totals go to DIR/summary.json. *)

open Tagsim
module Run = Analysis.Run
module Cache = Analysis.Cache
module Planner = Analysis.Planner
module Cross = Fuzz.Cross

let workload = ref "" and dir = ref "" and jobs = ref 1 and only = ref ""
let seed = ref 1 and count = ref 40 and traced = ref false
let max_size = 80

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_metrics kvs = json_obj (List.map (fun (k, v) -> (k, json_number v)) kvs)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

(* Counters every pass reports: the determinism guard compares them
   across passes at --jobs 1. *)
let guard ~simulations ~alloc_w =
  let oh, om, ow = Objcache.counters () in
  let tt = Machine.trace_counters () in
  [
    ("run.simulations", fi simulations);
    ("objcache.hits", fi oh);
    ("objcache.misses", fi om);
    ("objcache.writes", fi ow);
    ("trace.formed", fi tt.Machine.tt_formed);
    ("trace.retired", fi tt.Machine.tt_retired);
    ("alloc_mw", alloc_w /. 1e6);
  ]

(* Per-layer totals of a traced pass: self times from the spans, counts
   from the library's own counters. *)
let layers ~work_s ~capacity ~check_s ~insns ~simulations =
  let spans = Span.all () in
  Span.write (Filename.concat !dir "spans.tsv") spans;
  let totals = Span.self_totals spans in
  let get n = Option.value ~default:(0., 0, 0.) (Hashtbl.find_opt totals n) in
  let self n = let s, _, _ = get n in s in
  let calls n = let _, c, _ = get n in fi c in
  let mw n = let _, _, w = get n in w /. 1e6 in
  let busy = Hashtbl.fold (fun _ (s, _, _) acc -> acc +. s) totals 0. in
  let b = Bphase.totals () in
  let phases =
    Bphase.(b.lower_s +. b.opt_s +. b.select_s +. b.codegen_s +. b.schedule_s
            +. b.assemble_s +. b.link_s)
  in
  let oh, om, ow = Objcache.counters () in
  let ch, cm, cw = Cache.counters () in
  let ph, pm, pw = Plan.counters () in
  let tt = Machine.trace_counters () in
  let exec_s = self "sim.exec" in
  [
    ("lisp.busy_s", self "lisp");
    ("compiler.busy_s", self "compiler");
    ("compiler.calls", calls "compiler");
    ("compiler.alloc_mw", mw "compiler");
    ("compiler.lower_s", b.Bphase.lower_s);
    ("compiler.opt_s", b.Bphase.opt_s);
    ("compiler.select_s", b.Bphase.select_s);
    ("compiler.codegen_s", b.Bphase.codegen_s);
    ("asm.schedule_s", b.Bphase.schedule_s);
    ("asm.assemble_s", b.Bphase.assemble_s);
    ("asm.link_s", b.Bphase.link_s);
    ("compiler.unattributed_s", self "compiler" -. phases);
    ("objcache.hits", fi oh);
    ("objcache.misses", fi om);
    ("objcache.writes", fi ow);
    ("objcache.hit_ratio", ratio (fi oh) (fi (oh + om)));
    ("sim.load_s", self "sim.load");
    ("sim.loads", calls "sim.load");
    ("sim.exec_s", exec_s);
    ("sim.insns", fi insns);
    ("sim.mips", ratio (fi insns) exec_s /. 1e6);
    ("sim.alloc_mw", mw "sim.load" +. mw "sim.exec");
    ("trace.formed", fi tt.Machine.tt_formed);
    ("trace.entered", fi tt.Machine.tt_entries);
    ("trace.side_exit_ratio", ratio (fi tt.Machine.tt_side_exits) (fi tt.Machine.tt_entries));
    ("trace.insn_share", ratio (fi tt.Machine.tt_in_trace) (fi tt.Machine.tt_retired));
    ("plan.loaded", fi (Plan.traces_loaded ()));
    ("plan.hits", fi ph);
    ("plan.misses", fi pm);
    ("plan.flushed", fi pw);
    ("plan.flush_s", self "plan.flush");
    ("cache.load_s", self "cache.load");
    ("cache.store_s", self "cache.store");
    ("cache.hits", fi ch);
    ("cache.misses", fi cm);
    ("cache.writes", fi cw);
    ("run.simulations", fi simulations);
    ("planner.render_s", self "planner.render");
    ("oracle.busy_s", self "oracle");
    ("oracle.calls", calls "oracle");
    ("gen.busy_s", self "gen");
    ("fuzz.check_ms_p50", 1e3 *. percentile 0.5 check_s);
    ("fuzz.check_ms_p90", 1e3 *. percentile 0.9 check_s);
    ("traced.wall_s", work_s);
    ("unattributed_s", capacity -. busy);
  ]

let configure_plan_stores () =
  Cache.set_dir !dir;
  Cache.set_enabled true;
  Objcache.set_dir (Filename.concat !dir "obj");
  Objcache.set_enabled true;
  Plan.set_dir (Filename.concat !dir "plan");
  Plan.set_enabled true;
  Analysis.Pool.set_default_jobs !jobs

let artifacts () =
  match String.split_on_char ',' !only with
  | [ "" ] -> Planner.artifacts
  | names ->
      List.map
        (fun n ->
          match Planner.find n with
          | Some a -> a
          | None -> failwith ("unknown artifact " ^ n))
        names

(* The work of one pass: [(items, simulations, insns, check_s)]. *)
let work_plan artifacts =
  let entries = Run.all_entries () in
  let json, simulations, insns =
    if !traced then
      let r = Replica.plan ~jobs:!jobs ~artifacts ~entries in
      (r.Replica.json, r.Replica.simulations, r.Replica.insns)
    else
      let rendered = Planner.plan artifacts in
      (Planner.json_string rendered, Run.simulations (), 0)
  in
  write (Filename.concat !dir "results.json") json;
  let items =
    List.concat_map (fun a -> a.Analysis.Spec.a_configs entries) artifacts
    |> List.map Run.matrix_key |> List.sort_uniq compare |> List.length
  in
  (items, simulations, insns, [])

let work_fuzz () =
  let verdicts, insns, check_s =
    if !traced then
      let r = Replica.fuzz ~matrix:Cross.smoke ~seed:!seed ~count:!count ~max_size in
      (r.Replica.verdicts, r.Replica.fuzz_insns, r.Replica.check_s)
    else begin
      let verdicts = ref [] in
      let check prog =
        let v = Cross.check Cross.smoke (Fuzz.Gen.render prog) in
        verdicts := Replica.verdict_string v :: !verdicts;
        v
      in
      ignore
        (Fuzz.Driver.campaign ~check ~shrink:false ~matrix:Cross.smoke ~seed:!seed
           ~count:!count ~max_size ());
      (List.rev !verdicts, 0, [])
    end
  in
  write (Filename.concat !dir "verdicts.txt") (String.concat "\n" verdicts ^ "\n");
  (!count, 0, insns, check_s)

let pass () =
  let plan = !workload = "plan" in
  if not (plan || !workload = "fuzz") then failwith ("unknown workload " ^ !workload);
  let artifacts = if plan then (configure_plan_stores (); artifacts ()) else [] in
  print_endline "ready";
  if In_channel.input_line stdin = Some "go" then begin
    let w0 = Span.words () and t0 = Unix.gettimeofday () in
    let outcome =
      try Ok (if plan then work_plan artifacts else work_fuzz ()) with
      | Run.Wrong_result msg -> Error ("wrong result: " ^ msg)
      | e -> Error (Printexc.to_string e)
    in
    let work_s = Unix.gettimeofday () -. t0 and alloc_w = Span.words () -. w0 in
    let fields =
      match outcome with
      | Error msg -> [ ("ok", "false"); ("error", json_string msg) ]
      | Ok (items, simulations, insns, check_s) ->
          let capacity = fi (if plan then !jobs else 1) *. work_s in
          [
            ("ok", "true");
            ("items", string_of_int items);
            ("work_s", json_number work_s);
            ("guard", json_metrics (guard ~simulations ~alloc_w));
          ]
          @
          if !traced then
            [ ("layers", json_metrics (layers ~work_s ~capacity ~check_s ~insns ~simulations)) ]
          else []
    in
    write (Filename.concat !dir "summary.json") (json_obj fields ^ "\n")
  end

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "plan|fuzz");
      ("--dir", Arg.Set_string dir, "DIR pass directory (stores, outputs)");
      ("--jobs", Arg.Set_int jobs, "N worker domains (plan)");
      ("--only", Arg.Set_string only, "A,B artifacts (plan; default all)");
      ("--seed", Arg.Set_int seed, "S campaign seed (fuzz)");
      ("--count", Arg.Set_int count, "N programs (fuzz)");
      ("--trace", Arg.Set traced, " run the traced replica");
    ]
  in
  match Array.to_list Sys.argv with
  | _ :: "pass" :: _ ->
      Arg.parse_argv ~current:(ref 1) Sys.argv specs
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "tagbench.exe pass [options]";
      pass ()
  | _ ->
      prerr_endline "usage: tagbench.exe pass --workload plan|fuzz --dir DIR ...";
      exit 2
