type counterexample = {
  cx_index : int;
  cx_seed : int;
  cx_source : string;
  cx_shrunk : string;
  cx_nodes : int;
  cx_minimized : bool;
  cx_detail : string;
}

type report = {
  r_generated : int;
  r_skipped : int;
  r_counterexamples : counterexample list;
}

let campaign ?check ?(log = fun _ -> ()) ?(shrink = true)
    ?(shrink_budget = 2000) ~(matrix : Cross.matrix) ~seed ~count ~max_size ()
    : report =
  let check_prog, narrow_check =
    match check with
    | Some f -> (f, fun (_ : Cross.divergence) -> f)
    | None ->
        ( (fun prog -> Cross.check matrix (Gen.render prog)),
          fun d ->
            let m = Cross.narrow matrix d in
            fun prog -> Cross.check m (Gen.render prog) )
  in
  let rng = Rng.create seed in
  let skipped = ref 0 in
  let cexs = ref [] in
  for index = 0 to count - 1 do
    let prog = Gen.program rng ~max_size in
    match check_prog prog with
    | Cross.Agree -> ()
    | Cross.Rejected ->
        (* generator overran a compiler limit — consistently, in every
           configuration; counted so a quiet campaign is
           distinguishable from one that never ran anything *)
        incr skipped
    | Cross.Diverge d ->
        log
          (Fmt.str "program %d DIVERGES (%d nodes): %s" index
             (Gen.size prog) d.Cross.d_detail);
        let reproduces = narrow_check d in
        let still p =
          match reproduces p with
          | Cross.Agree | Cross.Rejected -> false
          | Cross.Diverge _ -> true
        in
        let minimized = shrink && still prog in
        let shrunk =
          if minimized then
            Shrink.minimize ~check:still ~max_attempts:shrink_budget prog
          else prog
        in
        log
          ((if minimized then Fmt.str "  shrunk to %d nodes: %s"
            else Fmt.str "  not shrunk (%d nodes): %s")
             (Gen.size shrunk) (Gen.render shrunk));
        cexs :=
          {
            cx_index = index;
            cx_seed = seed;
            cx_source = Gen.render prog;
            cx_shrunk = Gen.render shrunk;
            cx_nodes = Gen.size shrunk;
            cx_minimized = minimized;
            cx_detail = d.Cross.d_detail;
          }
          :: !cexs
  done;
  { r_generated = count; r_skipped = !skipped; r_counterexamples = List.rev !cexs }
