(** The fuzzing campaign driver: generate [count] programs from [seed],
    check each over the matrix, and delta-debug any counterexample down
    to a small reproducer.

    Reproducibility contract: the same [seed], [count] and [max_size]
    yield the same program sequence and the same verdicts (the
    generator consumes a private splitmix64 stream; checking consumes
    none of it). *)

type counterexample = {
  cx_index : int;  (** which generated program (0-based) *)
  cx_seed : int;
  cx_source : string;  (** as generated *)
  cx_shrunk : string;
      (** after delta debugging; [cx_source] when it did not run *)
  cx_nodes : int;  (** node count of [cx_shrunk] *)
  cx_minimized : bool;
      (** whether delta debugging ran: not with [~shrink:false], nor
          when the narrowed matrix does not reproduce the divergence *)
  cx_detail : string;  (** the (original) divergence *)
}

type report = {
  r_generated : int;
  r_skipped : int;
      (** programs every configuration refused to compile *)
  r_counterexamples : counterexample list;
}

(** Run a campaign.  [check] defaults to {!Cross.check} over [matrix]
    and is injectable so the driver/shrinker pipeline can be tested
    against a synthetic divergence without breaking a real engine.
    [log] receives one line per event (program verdicts, shrink
    results).  [shrink_budget] bounds predicate evaluations per
    counterexample. *)
val campaign :
  ?check:(Gen.program -> Cross.verdict) ->
  ?log:(string -> unit) ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  matrix:Cross.matrix ->
  seed:int ->
  count:int ->
  max_size:int ->
  unit ->
  report
