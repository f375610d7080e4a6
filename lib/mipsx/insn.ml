(** The MIPS-X-like instruction set.

    The type is parameterised over the representation of code and data
    addresses: the assembler works with symbolic labels ([string t]) and
    produces resolved instructions ([int t]).

    The baseline instruction set is a plain single-issue RISC: one cycle per
    instruction, delayed branches with two delay slots (optionally squashing,
    Section 6.2.1 of the paper), a one-cycle load delay.  The extensions the
    paper studies are modelled as additional instructions or memory modes:

    - [Tag_ignoring] loads/stores drop the tag bits of the address
      (Section 5.2, Table 2 row 1 hardware variant);
    - [Checked] loads/stores verify the tag of the {e address operand} in
      parallel with the address calculation and trap on mismatch
      (Section 6.2.1, Table 2 rows 5 and 6);
    - [Btag] branches compare the tag field directly, without a separate
      extraction instruction (Section 6.1, Table 2 row 2);
    - [Add_gen]/[Sub_gen] perform hardware generic arithmetic: they execute
      an integer add/sub and trap unless both operands carry integer tags
      and no overflow occurs (Section 6.2.2, Table 2 row 4). *)

type alu =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Nor
  | Slt (* signed set-on-less-than *)
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
  | Tag_ignoring
  | Checked of int (* expected tag value for the address operand *)

(** Static branch prediction hint supplied by the code generator; the
    delay-slot scheduler uses it to decide how to fill the two slots. *)
type hint =
  | No_hint
  | Unlikely (* taken path aborts or retries: slots may hold stores *)
  | Slow_path
      (* taken path resumes after fixing the result: slots may hold only
         register work that the slow path overwrites *)
  | Likely (* e.g. loop back-edge *)

type branch = {
  cond : cond;
  rs : Reg.t;
  rt : Reg.t;
  squash : bool; (* squashing branch: slots annulled when not taken *)
  hint : hint;
}

type branch_i = {
  bi_cond : cond;
  bi_rs : Reg.t;
  bi_imm : int; (* 17-bit signed immediate *)
  bi_squash : bool;
  bi_hint : hint;
}

type btag = {
  bt_neg : bool; (* true: branch when tag differs *)
  bt_rs : Reg.t;
  bt_tag : int; (* expected tag value *)
  bt_squash : bool;
  bt_hint : hint;
}

type 'lbl t =
  | Alu of alu * Reg.t * Reg.t * Reg.t (* rd <- rs op rt *)
  | Alui of alu * Reg.t * Reg.t * int (* rd <- rs op imm *)
  | Li of Reg.t * int (* rd <- constant (2 cycles if wide) *)
  | La of Reg.t * 'lbl (* rd <- address of data label *)
  | Mv of Reg.t * Reg.t (* rd <- rs (distinct class for Figure 2) *)
  | Ld of mem_mode * Reg.t * Reg.t * int (* rd <- mem[rs + off] *)
  | St of mem_mode * Reg.t * Reg.t * int (* mem[rs + off] <- rt *)
  | B of branch * 'lbl
  | Bi of branch_i * 'lbl
  | Btag of btag * 'lbl
  | J of 'lbl
  | Jal of 'lbl
  | Jr of Reg.t
  | Jalr of Reg.t (* call through register (funcall) *)
  | Add_gen of Reg.t * Reg.t * Reg.t
  | Sub_gen of Reg.t * Reg.t * Reg.t
  | Settd of Reg.t (* trap handler: write rs to the trapped insn's dest *)
  | Rett (* return from a resumable trap *)
  | Trap of int (* abort execution with an error code *)
  | Halt (* normal termination; result in v0 *)
  | Nop

(* --- Static properties used by the scheduler and the simulator. --- *)

let is_control = function
  | B _ | Bi _ | Btag _ | J _ | Jal _ | Jr _ | Jalr _ | Trap _ | Halt | Rett ->
      true
  | Alu _ | Alui _ | Li _ | La _ | Mv _ | Ld _ | St _ | Add_gen _ | Sub_gen _
  | Settd _ | Nop ->
      false

(** Registers read by an instruction (for dependence checking). *)
let reads = function
  | Alu (_, _, rs, rt) -> [ rs; rt ]
  | Alui (_, _, rs, _) -> [ rs ]
  | Li _ | La _ -> []
  | Mv (_, rs) -> [ rs ]
  | Ld (_, _, rs, _) -> [ rs ]
  | St (_, rs, rt, _) -> [ rs; rt ]
  | B ({ rs; rt; _ }, _) -> [ rs; rt ]
  | Bi ({ bi_rs; _ }, _) -> [ bi_rs ]
  | Btag ({ bt_rs; _ }, _) -> [ bt_rs ]
  | J _ | Jal _ -> []
  | Jr rs | Jalr rs -> [ rs ]
  | Add_gen (_, rs, rt) | Sub_gen (_, rs, rt) -> [ rs; rt ]
  | Settd rs -> [ rs ]
  | Rett -> [ Reg.epc ]
  | Trap _ | Halt | Nop -> []

(** Does the instruction read register [r]?  [List.mem r (reads i)]
    without building the list: the simulator asks it on every
    load-use interlock probe. *)
let reads_reg i r =
  match i with
  | Alu (_, _, rs, rt)
  | St (_, rs, rt, _)
  | B ({ rs; rt; _ }, _)
  | Add_gen (_, rs, rt)
  | Sub_gen (_, rs, rt) ->
      rs = r || rt = r
  | Alui (_, _, rs, _)
  | Mv (_, rs)
  | Ld (_, _, rs, _)
  | Bi ({ bi_rs = rs; _ }, _)
  | Btag ({ bt_rs = rs; _ }, _)
  | Jr rs | Jalr rs | Settd rs ->
      rs = r
  | Rett -> r = Reg.epc
  | Li _ | La _ | J _ | Jal _ | Trap _ | Halt | Nop -> false

(** Register written by an instruction, if any. *)
let writes = function
  | Alu (_, rd, _, _)
  | Alui (_, rd, _, _)
  | Li (rd, _)
  | La (rd, _)
  | Mv (rd, _)
  | Ld (_, rd, _, _)
  | Add_gen (rd, _, _)
  | Sub_gen (rd, _, _) ->
      Some rd
  | Jal _ | Jalr _ -> Some Reg.ra
  | St _ | B _ | Bi _ | Btag _ | J _ | Jr _ | Settd _ | Rett | Trap _ | Halt
  | Nop ->
      None

let has_memory_effect = function
  | Ld _ | St _ -> true
  | Alu _ | Alui _ | Li _ | La _ | Mv _ | B _ | Bi _ | Btag _ | J _ | Jal _
  | Jr _ | Jalr _ | Add_gen _ | Sub_gen _ | Settd _ | Rett | Trap _ | Halt
  | Nop ->
      false

(** Could the instruction trap (beyond ordinary memory access)?  Trapping
    instructions are never hoisted into delay slots. *)
let may_trap = function
  | Add_gen _ | Sub_gen _ | Trap _ -> true
  | Ld (Checked _, _, _, _) | St (Checked _, _, _, _) -> true
  | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _) -> true
  | Ld _ | St _ | Alu _ | Alui _ | Li _ | La _ | Mv _ | B _ | Bi _ | Btag _
  | J _ | Jal _ | Jr _ | Jalr _ | Settd _ | Rett | Halt | Nop ->
      false

(* --- Pretty-printing (symbolic form). --- *)

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Nor -> "nor"
  | Slt -> "slt"
  | Sltu -> "sltu"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let mode_suffix = function
  | Plain -> ""
  | Tag_ignoring -> ".ti"
  | Checked tag -> Printf.sprintf ".chk%d" tag

let pp pp_lbl ppf insn =
  let r = Reg.name in
  match insn with
  | Alu (op, rd, rs, rt) ->
      Fmt.pf ppf "%s %s, %s, %s" (alu_name op) (r rd) (r rs) (r rt)
  | Alui (op, rd, rs, imm) ->
      Fmt.pf ppf "%si %s, %s, %d" (alu_name op) (r rd) (r rs) imm
  | Li (rd, imm) -> Fmt.pf ppf "li %s, %d" (r rd) imm
  | La (rd, lbl) -> Fmt.pf ppf "la %s, %a" (r rd) pp_lbl lbl
  | Mv (rd, rs) -> Fmt.pf ppf "mv %s, %s" (r rd) (r rs)
  | Ld (m, rd, rs, off) ->
      Fmt.pf ppf "ld%s %s, %d(%s)" (mode_suffix m) (r rd) off (r rs)
  | St (m, rs, rt, off) ->
      Fmt.pf ppf "st%s %s, %d(%s)" (mode_suffix m) (r rt) off (r rs)
  | B (b, lbl) ->
      Fmt.pf ppf "b%s%s %s, %s, %a" (cond_name b.cond)
        (if b.squash then ".sq" else "")
        (r b.rs) (r b.rt) pp_lbl lbl
  | Bi (b, lbl) ->
      Fmt.pf ppf "b%si%s %s, %d, %a" (cond_name b.bi_cond)
        (if b.bi_squash then ".sq" else "")
        (r b.bi_rs) b.bi_imm pp_lbl lbl
  | Btag (b, lbl) ->
      Fmt.pf ppf "btag%s%s %s, %d, %a"
        (if b.bt_neg then ".ne" else ".eq")
        (if b.bt_squash then ".sq" else "")
        (r b.bt_rs) b.bt_tag pp_lbl lbl
  | J lbl -> Fmt.pf ppf "j %a" pp_lbl lbl
  | Jal lbl -> Fmt.pf ppf "jal %a" pp_lbl lbl
  | Jr rs -> Fmt.pf ppf "jr %s" (r rs)
  | Jalr rs -> Fmt.pf ppf "jalr %s" (r rs)
  | Add_gen (rd, rs, rt) ->
      Fmt.pf ppf "add.gen %s, %s, %s" (r rd) (r rs) (r rt)
  | Sub_gen (rd, rs, rt) ->
      Fmt.pf ppf "sub.gen %s, %s, %s" (r rd) (r rs) (r rt)
  | Settd rs -> Fmt.pf ppf "settd %s" (r rs)
  | Rett -> Fmt.string ppf "rett"
  | Trap code -> Fmt.pf ppf "trap %d" code
  | Halt -> Fmt.string ppf "halt"
  | Nop -> Fmt.string ppf "nop"

(** Map the label type, e.g. when resolving labels to addresses. *)
let map_label f = function
  | La (rd, l) -> La (rd, f l)
  | B (b, l) -> B (b, f l)
  | Bi (b, l) -> Bi (b, f l)
  | Btag (b, l) -> Btag (b, f l)
  | J l -> J (f l)
  | Jal l -> Jal (f l)
  | Alu (op, rd, rs, rt) -> Alu (op, rd, rs, rt)
  | Alui (op, rd, rs, imm) -> Alui (op, rd, rs, imm)
  | Li (rd, imm) -> Li (rd, imm)
  | Mv (rd, rs) -> Mv (rd, rs)
  | Ld (m, rd, rs, off) -> Ld (m, rd, rs, off)
  | St (m, rs, rt, off) -> St (m, rs, rt, off)
  | Jr rs -> Jr rs
  | Jalr rs -> Jalr rs
  | Add_gen (rd, rs, rt) -> Add_gen (rd, rs, rt)
  | Sub_gen (rd, rs, rt) -> Sub_gen (rd, rs, rt)
  | Settd rs -> Settd rs
  | Rett -> Rett
  | Trap code -> Trap code
  | Halt -> Halt
  | Nop -> Nop

(** Instruction class for the Figure 2 frequency accounting. *)
type klass =
  | K_and (* tag-masking and other AND operations *)
  | K_move
  | K_nop
  | K_load
  | K_store
  | K_branch
  | K_jump
  | K_alu
  | K_other

let klass = function
  | Alu (And, _, _, _) | Alui (And, _, _, _) -> K_and
  | Mv _ -> K_move
  | Nop -> K_nop
  | Ld _ -> K_load
  | St _ -> K_store
  | B _ | Bi _ | Btag _ -> K_branch
  | J _ | Jal _ | Jr _ | Jalr _ -> K_jump
  | Alu _ | Alui _ | Li _ | La _ | Add_gen _ | Sub_gen _ -> K_alu
  | Settd _ | Rett | Trap _ | Halt -> K_other

let klass_name = function
  | K_and -> "and"
  | K_move -> "move"
  | K_nop -> "noop"
  | K_load -> "load"
  | K_store -> "store"
  | K_branch -> "branch"
  | K_jump -> "jump"
  | K_alu -> "alu"
  | K_other -> "other"

let klass_index = function
  | K_and -> 0
  | K_move -> 1
  | K_nop -> 2
  | K_load -> 3
  | K_store -> 4
  | K_branch -> 5
  | K_jump -> 6
  | K_alu -> 7
  | K_other -> 8

let n_klasses = 9

let all_klasses =
  [ K_and; K_move; K_nop; K_load; K_store; K_branch; K_jump; K_alu; K_other ]
