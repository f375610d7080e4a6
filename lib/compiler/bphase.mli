(** The backend's phase timers, which {!Program} keeps in
    {!Tagsim_metrics.Metrics}, as one record of seconds: a view kept
    only for tagbench/, which still reads it; the benchmark change of
    ROADMAP item 3 removes it. *)

type totals = {
  codegen_s : float;  (** [compiler.codegen_s] *)
  lower_s : float;  (** [compiler.lower_s] *)
  opt_s : float;  (** [compiler.opt_s] *)
  select_s : float;  (** [compiler.select_s] *)
  schedule_s : float;  (** [asm.schedule_s] *)
  assemble_s : float;  (** [asm.assemble_s] *)
  link_s : float;  (** [asm.link_s] *)
}

val totals : unit -> totals
