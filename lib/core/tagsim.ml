(** Tagsim: a reproduction of Steenkiste & Hennessy, "Tags and Type
    Checking in LISP: Hardware and Software Approaches" (ASPLOS 1987).

    The library bundles a MIPS-X-like instruction-level simulator, a
    PSL-like Lisp compiler and runtime with configurable tag
    implementation schemes, and the measurement machinery that classifies
    execution cycles into the paper's tag-operation categories.

    Typical use:
    {[
      let scheme = Tagsim.Scheme.high5 in
      let support = Tagsim.Support.software in
      let program, result =
        Tagsim.Program.run_source ~scheme ~support
          "(de main () (plus2 1 2))"
      in
      (* result.value = Some (Hint 3); result.stats has the cycle
         breakdown *)
    ]} *)

module Metrics = Tagsim_metrics.Metrics
module Word = Tagsim_mipsx.Word
module Reg = Tagsim_mipsx.Reg
module Annot = Tagsim_mipsx.Annot
module Insn = Tagsim_mipsx.Insn
module Buf = Tagsim_asm.Buf
module Sched = Tagsim_asm.Sched
module Image = Tagsim_asm.Image
module Link = Tagsim_asm.Link
module Machine = Tagsim_sim.Machine
module Trace = Tagsim_sim.Trace
module Plan = Tagsim_sim.Plan
module Stats = Tagsim_sim.Stats
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sexp = Tagsim_lisp.Sexp
module Ast = Tagsim_lisp.Ast
module Expand = Tagsim_lisp.Expand
module Layout = Tagsim_runtime.Layout
module Emit = Tagsim_runtime.Emit
module Rt = Tagsim_runtime.Rt
module Symtab = Tagsim_compiler.Symtab
module Codegen = Tagsim_compiler.Codegen
module Tir = Tagsim_compiler.Tir
module Lower = Tagsim_compiler.Lower
module Select = Tagsim_compiler.Select
module Checkelim = Tagsim_compiler.Checkelim
module Bphase = Tagsim_compiler.Bphase
module Objcache = Tagsim_compiler.Objcache
module Prelude = Tagsim_compiler.Prelude
module Program = Tagsim_compiler.Program
module Oracle = Tagsim_compiler.Oracle
module Benchmarks = Tagsim_programs.Registry
module Fuzz = struct
  module Rng = Tagsim_fuzz.Rng
  module Gen = Tagsim_fuzz.Gen
  module Cross = Tagsim_fuzz.Cross
  module Shrink = Tagsim_fuzz.Shrink
  module Driver = Tagsim_fuzz.Fuzz
end
module Analysis = struct
  module Pool = Tagsim_analysis.Pool
  module Cache = Tagsim_analysis.Cache
  module Run = Tagsim_analysis.Run
  module Spec = Tagsim_analysis.Spec
  module Planner = Tagsim_analysis.Planner
  module Table1 = Tagsim_analysis.Table1
  module Table2 = Tagsim_analysis.Table2
  module Table3 = Tagsim_analysis.Table3
  module Figure1 = Tagsim_analysis.Figure1
  module Figure2 = Tagsim_analysis.Figure2
  module Garith = Tagsim_analysis.Garith
  module Profile = Tagsim_analysis.Profile
  module Ablations = Tagsim_analysis.Ablations
  module Elision = Tagsim_analysis.Elision
end
