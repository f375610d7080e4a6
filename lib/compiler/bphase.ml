(* The backend's phase timers as one record (see bphase.mli). *)

module Metrics = Tagsim_metrics.Metrics

type totals = {
  codegen_s : float;
  lower_s : float;
  opt_s : float;
  select_s : float;
  schedule_s : float;
  assemble_s : float;
  link_s : float;
}

let totals () =
  let s name = Metrics.seconds (Metrics.counter name) in
  {
    codegen_s = s "compiler.codegen_s";
    lower_s = s "compiler.lower_s";
    opt_s = s "compiler.opt_s";
    select_s = s "compiler.select_s";
    schedule_s = s "asm.schedule_s";
    assemble_s = s "asm.assemble_s";
    link_s = s "asm.link_s";
  }
