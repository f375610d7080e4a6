(** Per-instruction closures for delay-slot instructions, with
    operands, cycle costs, annotation slot indices and immediate-width
    charges resolved once at compile time.  {!Fuse} runs the delay slots
    it cannot fuse through them and shares the pre-resolved evaluators,
    so the block compiler and the reference interpreter cannot drift
    (enforced by the engine differential suite). *)

module Image := Tagsim_asm.Image
module Insn := Tagsim_mipsx.Insn

(** Compile the instruction in a delay slot into its body closure (no
    pc advance), mirroring [Machine.exec_simple] in a slot: a control
    instruction, or a generic-arithmetic instruction that would trap,
    stops with [Machine_error]. *)
val compile_simple : Machine.hw -> Image.entry -> Machine.t -> unit

(** Pre-resolved evaluators (mirror {!Machine.alu_eval} and
    {!Machine.cond_eval} with the constructor dispatch done once). *)
val alu_fn : Insn.alu -> int -> int -> int

val cond_fn : Insn.cond -> int -> int -> bool

(** Registers read by an instruction as a pre-resolved pair (at most
    two; -1 = none). *)
val read_regs : int Insn.t -> int * int
