(** The global fan-out planner: takes any set of requested artifacts,
    unions and deduplicates their configuration matrices, fans the union
    out {e once} over the {!Pool} worker domains, and renders every
    artifact from the shared measurement store.  The per-artifact serial
    measurement loops this replaces simulated overlapping cells once per
    artifact (or relied on the memo cache being pre-warmed in the right
    order); here the overlap is deduplicated globally before any
    simulation starts. *)

module Metrics = Tagsim_metrics.Metrics
module Machine = Tagsim_sim.Machine
module Registry = Tagsim_programs.Registry

(* The reproduction's artifacts, in the paper-output order of
   [tagsim experiments]. *)
let artifacts : Spec.artifact list =
  [
    Table1.artifact;
    Figure1.artifact;
    Figure2.artifact;
    Table2.artifact;
    Table3.artifact;
    Garith.artifact;
    Ablations.artifact;
    Elision.artifact;
  ]

let names () = List.map (fun a -> a.Spec.a_name) artifacts
let find name = List.find_opt (fun a -> a.Spec.a_name = name) artifacts

let render_s = Metrics.counter "planner.render_s"

(** Execute a plan: one deduplicated fan-out over the union of the
    requested artifacts' matrices, then render each artifact from the
    shared store.  [entries] restricts the benchmark suite (tests);
    [engine] selects the simulator engine for the whole plan (default
    [`Traced]); [jobs] defaults to {!Pool.default_jobs}. *)
let plan ?jobs ?(engine = `Traced) ?entries (requested : Spec.artifact list) =
  let entries =
    match entries with Some es -> es | None -> Run.all_entries ()
  in
  let union = List.concat_map (fun a -> a.Spec.a_configs entries) requested in
  let lookup = Spec.lookup_of ?jobs ~engine union in
  Metrics.time render_s (fun () ->
      List.map (fun a -> a.Spec.a_render entries lookup) requested)

(** {1 Sinks} *)

(* The machine-readable form of a whole plan: what RESULTS.json holds.
   Only stable, deterministic fields — no timestamps, no engine or job
   count (neither affects a single number) — so CI can diff a
   regenerated file against the committed one. *)
let json_of (rendered : Spec.rendered list) =
  Spec.J_obj
    [
      ("schema_version", Spec.J_int 1);
      ( "paper",
        Spec.J_string
          "Steenkiste & Hennessy, \"Tags and Type Checking in LISP: \
           Hardware and Software Approaches\" (ASPLOS 1987)" );
      ("generator", Spec.J_string "tagsim experiments");
      ( "artifacts",
        Spec.J_obj
          (List.map
             (fun r ->
               ( r.Spec.r_name,
                 Spec.J_obj
                   [
                     ("title", Spec.J_string r.Spec.r_title);
                     ("data", r.Spec.r_json);
                   ] ))
             rendered) );
    ]

let json_string rendered = Spec.json_to_string (json_of rendered)

(* All CSV sections of a plan, concatenated with one blank line between
   sections (each section is introduced by a ["# name"] comment line). *)
let csv_string (rendered : Spec.rendered list) =
  rendered
  |> List.concat_map (fun r -> r.Spec.r_tables)
  |> List.map Spec.table_to_csv
  |> String.concat "\n"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_json path rendered = write_file path (json_string rendered)
let write_csv path rendered = write_file path (csv_string rendered)
