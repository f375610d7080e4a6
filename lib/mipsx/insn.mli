(** The MIPS-X-like instruction set, parameterised over the label type:
    symbolic programs use [string t], resolved programs [int t].  See the
    implementation header for the modelling of the paper's hardware
    extensions. *)

type alu =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Nor
  | Slt
  | Sltu
  | Sll
  | Srl
  | Sra
  | Mul
  | Div
  | Rem

type cond = Eq | Ne | Lt | Ge | Gt | Le

type mem_mode =
  | Plain
  | Tag_ignoring (* hardware drops the tag bits of the address *)
  | Checked of int (* hardware verifies the address operand's tag *)

(** Static branch prediction hint, consumed by the delay-slot scheduler. *)
type hint =
  | No_hint
  | Unlikely (* taken path aborts or retries: slots may hold stores *)
  | Slow_path
      (* taken path resumes after fixing the result: slots may hold only
         register work that the slow path overwrites *)
  | Likely (* e.g. loop back-edge *)

type branch = {
  cond : cond;
  rs : int;
  rt : int;
  squash : bool; (* squashing branch: slots annulled when not taken *)
  hint : hint;
}

type branch_i = {
  bi_cond : cond;
  bi_rs : int;
  bi_imm : int; (* 17-bit signed immediate *)
  bi_squash : bool;
  bi_hint : hint;
}

type btag = {
  bt_neg : bool; (* true: branch when the tag differs *)
  bt_rs : int;
  bt_tag : int; (* expected tag value *)
  bt_squash : bool;
  bt_hint : hint;
}

type 'lbl t =
  | Alu of alu * Reg.t * Reg.t * Reg.t (* rd <- rs op rt *)
  | Alui of alu * Reg.t * Reg.t * int (* rd <- rs op imm *)
  | Li of Reg.t * int (* rd <- constant (2 cycles if wide) *)
  | La of Reg.t * 'lbl (* rd <- address of a data label *)
  | Mv of Reg.t * Reg.t (* rd <- rs (its own class for Figure 2) *)
  | Ld of mem_mode * Reg.t * Reg.t * int (* rd <- mem[rs + off] *)
  | St of mem_mode * Reg.t * Reg.t * int (* mem[rs + off] <- rt *)
  | B of branch * 'lbl
  | Bi of branch_i * 'lbl
  | Btag of btag * 'lbl
  | J of 'lbl
  | Jal of 'lbl
  | Jr of Reg.t
  | Jalr of Reg.t (* call through a register (funcall) *)
  | Add_gen of Reg.t * Reg.t * Reg.t (* hardware generic add: may trap *)
  | Sub_gen of Reg.t * Reg.t * Reg.t
  | Settd of Reg.t (* trap handler: write rs to the trapped insn's dest *)
  | Rett (* return from a resumable trap *)
  | Trap of int (* abort execution with an error code *)
  | Halt (* normal termination; result in v0 *)
  | Nop

(** {1 Static properties (scheduler / simulator)} *)

val is_control : 'lbl t -> bool
val reads : 'lbl t -> Reg.t list

(** [reads_reg i r] is [List.mem r (reads i)], without allocating. *)
val reads_reg : 'lbl t -> Reg.t -> bool

val writes : 'lbl t -> Reg.t option
val has_memory_effect : 'lbl t -> bool

(** Could the instruction trap (beyond ordinary memory access)?  Trapping
    instructions are never hoisted into delay slots. *)
val may_trap : 'lbl t -> bool

(** {1 Pretty-printing} *)

val alu_name : alu -> string
val cond_name : cond -> string
val mode_suffix : mem_mode -> string
val pp : (Format.formatter -> 'lbl -> unit) -> Format.formatter -> 'lbl t -> unit

(** Map the label type, e.g. when resolving labels to addresses. *)
val map_label : ('a -> 'b) -> 'a t -> 'b t

(** {1 Instruction classes for the Figure 2 frequency accounting} *)

type klass =
  | K_and
  | K_move
  | K_nop
  | K_load
  | K_store
  | K_branch
  | K_jump
  | K_alu
  | K_other

val klass : 'lbl t -> klass
val klass_name : klass -> string
val klass_index : klass -> int
val n_klasses : int
val all_klasses : klass list
