(* Entry point aggregating all suites. *)
let () =
  Alcotest.run "tagsim"
    (Suite_units.suite @ Suite_costs.suite @ Suite_props.suite
   @ Suite_differential.suite @ Suite_smoke.suite @ Suite_lang.suite
   @ Suite_configs.suite @ Suite_benchmarks.suite @ Suite_engines.suite
   @ Suite_analysis.suite @ Suite_plan.suite @ Suite_cache.suite
   @ Suite_link.suite @ Suite_tir.suite @ Suite_store.suite
   @ Suite_fuzz.suite)
