(* The incremental backend: relocatable per-unit objects and the
   linker.  The pivotal property is the differential one — for every
   tag scheme and every named support row, the linked image is
   byte-identical to the monolithically assembled one. *)

module B = Tagsim.Benchmarks
module Program = Tagsim.Program
module Image = Tagsim.Image
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let source name = (B.find name).B.source

(* --- the differential: monolithic vs linked, every scheme x every
   named support row --- *)

let differential name () =
  let fe = Program.analyze (source name) in
  List.iter
    (fun scheme ->
      List.iter
        (fun (row, support) ->
          let mono =
            Program.compile_frontend ~backend:`Monolithic ~scheme ~support fe
          in
          let inc =
            Program.compile_frontend ~backend:`Incremental ~scheme ~support fe
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s byte-identical" name scheme.Scheme.name
               row)
            true
            (Image.equal mono.Program.image inc.Program.image))
        Support.all_named)
    Scheme.all

let suite =
  [
    ( "link",
      [
        Alcotest.test_case "differential-inter" `Slow (differential "inter");
        Alcotest.test_case "differential-comp" `Slow (differential "comp");
        Alcotest.test_case "differential-frl" `Slow (differential "frl");
      ] );
  ]
