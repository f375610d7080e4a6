(* The experiment-plan layer: the planner's global deduplicated fan-out,
   the structured sinks, and golden numbers for a reduced-size plan
   under the reference engine. *)

module B = Tagsim.Benchmarks
module Run = Tagsim.Analysis.Run
module Spec = Tagsim.Analysis.Spec
module Planner = Tagsim.Analysis.Planner
module Support = Tagsim.Support

(* --- JSON access helpers (the tree is a plain variant) --- *)

let member k = function
  | Spec.J_obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.failf "JSON object has no member %S" k)
  | _ -> Alcotest.failf "not a JSON object (looking for %S)" k

let fnum = function
  | Spec.J_float f -> f
  | Spec.J_int i -> float_of_int i
  | _ -> Alcotest.fail "not a JSON number"

let jlist = function
  | Spec.J_list l -> l
  | _ -> Alcotest.fail "not a JSON list"

let entries_named names =
  List.filter (fun (e : B.entry) -> List.mem e.B.name names) (B.all ())

(* --- the planner simulates each distinct configuration exactly once --- *)

let test_planner_dedup () =
  let entries = entries_named [ "inter"; "deduce" ] in
  (* Overlapping matrices: table1 and figure1 declare identical cells,
     figure2 shares the no-checking base, table3 is a subset. *)
  let arts =
    List.map
      (fun n -> Option.get (Planner.find n))
      [ "table1"; "figure1"; "figure2"; "table3" ]
  in
  let distinct =
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (a : Spec.artifact) ->
        List.iter
          (fun c -> Hashtbl.replace seen (Run.config_key c) ())
          (a.Spec.a_configs entries))
      arts;
    Hashtbl.length seen
  in
  (* The union here is 2 programs x (software, software+rtc, row1): the
     overlap between the four artifacts collapses to six cells. *)
  Alcotest.(check int) "expected distinct cells" 6 distinct;
  Run.clear_cache ();
  Tagsim.Metrics.reset ();
  let rendered = Planner.plan ~jobs:1 ~entries arts in
  Alcotest.(check int) "one simulation per distinct config" distinct
    (Tagsim.Metrics.(get (counter "run.simulations")));
  Alcotest.(check int) "every artifact rendered" (List.length arts)
    (List.length rendered);
  (* A second plan over the same matrix hits the memo cache: no new
     simulations at all. *)
  ignore (Planner.plan ~jobs:1 ~entries arts);
  Alcotest.(check int) "replanning simulates nothing" distinct
    (Tagsim.Metrics.(get (counter "run.simulations")))

(* --- the counter registry: one reset clears every family, and the
   counts of a plan do not depend on the job count --- *)

(* The count-type counters a plan moves (the timers vary from run to
   run).  Each configuration compiles its own program, so no trace state
   is shared between domains and every count is exact. *)
let plan_counts =
  [
    "run.simulations"; "trace.formed"; "trace.entered"; "trace.side_exits";
    "trace.in_trace"; "trace.retired"; "trace.insns";
  ]

let test_metrics_jobs () =
  let module M = Tagsim.Metrics in
  let module Cache = Tagsim.Analysis.Cache in
  let table3 = [ Option.get (Planner.find "table3") ] in
  let counts jobs =
    M.reset ();
    let snapshot = M.snapshot () in
    List.iter
      (fun (name, v) -> Alcotest.(check int) (name ^ " after reset") 0 v)
      snapshot;
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " registered") true
          (List.mem_assoc name snapshot))
      plan_counts;
    Run.clear_cache ();
    ignore (Planner.plan ~jobs ~entries:(B.all ()) table3);
    List.map (fun name -> (name, M.get (M.counter name))) plan_counts
  in
  let enabled = Cache.enabled () in
  Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Cache.set_enabled enabled) (fun () ->
      let serial = counts 1 in
      Alcotest.(check bool) "the plan simulates and forms traces" true
        (List.for_all (fun (_, v) -> v > 0) serial);
      Alcotest.(check (list (pair string int)))
        "jobs:2 counts equal jobs:1" serial (counts 2))

(* --- golden numbers: full plan, reference engine, reduced suite --- *)

(* Locked headline values for the inter+trav suite under the reference
   engine (both engines are bit-identical, so these also lock the
   traced engine through the differential suite).  If a
   legitimate cost-model change moves them, re-derive with:
     Planner.plan ~jobs:1 ~engine:`Reference
       ~entries:(inter+trav) Planner.artifacts *)
let test_golden_numbers () =
  Run.clear_cache ();
  let entries = entries_named [ "inter"; "trav" ] in
  let rendered =
    Planner.plan ~jobs:1 ~engine:`Reference ~entries Planner.artifacts
  in
  Alcotest.(check (list string))
    "all eight artifacts, output order"
    [ "table1"; "figure1"; "figure2"; "table2"; "table3"; "garith";
      "ablations"; "elision" ]
    (List.map (fun r -> r.Spec.r_name) rendered);
  let data name =
    (List.find (fun r -> r.Spec.r_name = name) rendered).Spec.r_json
  in
  let t1 = data "table1" in
  let row i = List.nth (jlist (member "rows" t1)) i in
  let near = Alcotest.float 0.001 in
  Alcotest.check near "table1 inter total" 17.2486
    (fnum (member "total" (row 0)));
  Alcotest.check near "table1 trav total" 66.2677
    (fnum (member "total" (row 1)));
  Alcotest.check near "table1 trav vector" 34.2337
    (fnum (member "vector" (row 1)));
  Alcotest.check near "table1 average total" 41.7581
    (fnum (member "total" (member "average" t1)));
  let t2 = data "table2" in
  let speedup row field = fnum (member field (member row t2)) in
  Alcotest.check near "table2 row1 no_rtc" 6.5081 (speedup "row1" "no_rtc");
  Alcotest.check near "table2 row3 rtc" 13.0292 (speedup "row3" "rtc");
  Alcotest.check near "table2 row7 total no_rtc" 8.3618
    (speedup "row7.total" "no_rtc");
  Alcotest.check near "table2 row7 total rtc" 30.5955
    (speedup "row7.total" "rtc");
  Alcotest.check near "table2 spur rtc" 28.0564 (speedup "spur" "rtc")

(* --- sinks --- *)

let test_json_emitter () =
  let j =
    Spec.J_obj
      [
        ("s", Spec.J_string "a\"b\\c\nd");
        ("l", Spec.J_list [ Spec.J_int 1; Spec.J_float 2.5 ]);
        ("b", Spec.J_bool true);
        ("n", Spec.J_null);
        ("e", Spec.J_obj []);
        ("i", Spec.J_float 3.0);
      ]
  in
  Alcotest.(check string) "emitted JSON"
    "{\n  \"s\": \"a\\\"b\\\\c\\nd\",\n  \"l\": [\n    1,\n    2.5000\n  ],\n\
    \  \"b\": true,\n  \"n\": null,\n  \"e\": {},\n  \"i\": 3.0\n}\n"
    (Spec.json_to_string j)

let test_csv_emitter () =
  let t =
    {
      Spec.t_name = "demo";
      columns = [ "name"; "value" ];
      rows = [ [ "plain"; "1.0" ]; [ "a,b\"c"; "2.0" ] ];
    }
  in
  Alcotest.(check string) "emitted CSV"
    "# demo\nname,value\nplain,1.0\n\"a,b\"\"c\",2.0\n" (Spec.table_to_csv t)

let test_results_json_shape () =
  (* The RESULTS.json wrapper over an (empty-suite-free) cheap plan:
     table3 only, two programs, traced engine. *)
  let entries = entries_named [ "inter"; "deduce" ] in
  let rendered =
    Planner.plan ~jobs:1 ~entries [ Option.get (Planner.find "table3") ]
  in
  let top = Planner.json_of rendered in
  Alcotest.(check int) "schema version" 1 (match member "schema_version" top with
    | Spec.J_int i -> i
    | _ -> -1);
  let arts = member "artifacts" top in
  let t3 = member "data" (member "table3" arts) in
  Alcotest.(check int) "table3 rows" 2 (List.length (jlist t3));
  (* the CSV sink of the same plan has one section with the two rows *)
  let csv = Planner.csv_string rendered in
  Alcotest.(check bool) "csv has header" true
    (String.length csv > 0
    && String.sub csv 0 8 = "# table3")

let test_support_names () =
  Alcotest.(check int) "nine named configurations" 9
    (List.length Support.all_named);
  List.iter
    (fun (name, support) ->
      match Support.by_name name with
      | Some s -> Alcotest.(check bool) (name ^ " round-trips") true (s = support)
      | None -> Alcotest.failf "by_name %S = None" name)
    Support.all_named;
  Alcotest.(check bool) "unknown name" true (Support.by_name "row9" = None)

let test_planner_registry () =
  Alcotest.(check (list string)) "canonical artifact order"
    [ "table1"; "figure1"; "figure2"; "table2"; "table3"; "garith";
      "ablations"; "elision" ]
    (Planner.names ());
  Alcotest.(check bool) "find unknown" true (Planner.find "table9" = None)

let suite =
  [
    ( "plan",
      [
        Alcotest.test_case "json-emitter" `Quick test_json_emitter;
        Alcotest.test_case "csv-emitter" `Quick test_csv_emitter;
        Alcotest.test_case "support-names" `Quick test_support_names;
        Alcotest.test_case "planner-registry" `Quick test_planner_registry;
        Alcotest.test_case "results-json-shape" `Quick test_results_json_shape;
        Alcotest.test_case "planner-dedup" `Slow test_planner_dedup;
        Alcotest.test_case "metrics-independent-of-jobs" `Slow
          test_metrics_jobs;
        Alcotest.test_case "golden-numbers" `Slow test_golden_numbers;
      ] );
  ]
