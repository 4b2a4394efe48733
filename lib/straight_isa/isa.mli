(** The STRAIGHT instruction set (Irie et al., MICRO 2018, Section III-A).

    STRAIGHT instructions name their source operands by {e distance}: the
    operand [[k]] denotes the result of the [k]-th previous instruction in
    the dynamic (control-flow) order.  Each instruction implicitly occupies
    exactly one destination register identified by its fetch order, so no
    destination field exists; registers are written once and expire after
    [max_dist] younger instructions have executed.  The stack pointer is
    the only overwritable register and is manipulated exclusively by
    [Spadd]. *)

type dist = int
(** A source-operand distance.  Valid range: [0, max_dist]; distance [0]
    reads the hard-wired zero register. *)

val max_dist : int
(** The farthest referable producer, [2{^10} - 1 = 1023]: a source field
    spans 10 bits and [[0]] is the zero register. *)

(** Register-register ALU operations (RV32IM-equivalent semantics). *)
type alu_op =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu
  | Mul | Mulh | Div | Divu | Rem | Remu

(** Register-immediate ALU operations. *)
type alui_op =
  | Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltui

(** Instructions, parameterized by the representation of code targets:
    ['lab = string] for symbolic assembly, ['lab = int] once the assembler
    has resolved every target to a PC-relative word offset. *)
type 'lab t =
  | Alu of alu_op * dist * dist
  | Alui of alui_op * dist * int32
  | Lui of int32                      (** dest := imm20 lsl 12 *)
  | Rmov of dist                      (** dest := [[d]] (move padding) *)
  | Nop
  | Ld of dist * int                  (** dest := mem32[[[base]] + imm16] *)
  | St of dist * dist * int
      (** [St (value, base, offset)]: mem32[[[base]] + offset] := [[value]];
          the destination receives the stored value (Section III-A). *)
  | Bez of dist * 'lab                (** branch if [[d]] = 0 *)
  | Bnz of dist * 'lab                (** branch if [[d]] <> 0 *)
  | J of 'lab
  | Jal of 'lab                       (** dest := PC + 4; jump (call) *)
  | Jr of dist                        (** jump to [[d]] (function return) *)
  | Spadd of int                      (** SP := SP + imm; dest := new SP *)
  | Halt

type resolved = int t
(** An instruction whose control-flow targets are PC-relative word
    offsets. *)

(** Coarse classification used by the assembler, the simulators, and the
    instruction-mix statistics (Fig. 15 buckets RMOV and NOP apart). *)
type kind =
  | Kalu | Kmul | Kdiv | Kload | Kstore | Kbranch | Kjump | Krmov | Knop
  | Khalt

val kind : 'lab t -> kind

val sources : 'lab t -> dist list
(** Source distances of an instruction, in operand order (distance 0
    entries included). *)

val map_label : ('a -> 'b) -> 'a t -> 'b t
(** Rewrite the control-flow targets of an instruction. *)

val alu_op_name : alu_op -> string
val alui_op_name : alui_op -> string

val eval_alu : alu_op -> int32 -> int32 -> int32
(** RV32-style evaluation (shared by the functional simulator and constant
    folding): shifts use the low 5 bits, division by zero yields [-1]
    ([Div])/the dividend ([Rem]), [min_int / -1 = min_int]. *)

val eval_alu_int : alu_op -> int -> int -> int
(** {!eval_alu} on words held as OCaml ints carrying their sign-extended
    32-bit value, the functional simulator's representation; the result
    is sign-extended too.  [eval_alu] is this function on [int32]. *)

val sext32 : int -> int
(** The sign-extended value of an int's low 32 bits. *)

val u32 : int -> int
(** The low 32 bits of an int, read as unsigned. *)

val alu_of_alui : alui_op -> alu_op
(** The register-register operation computing the same function. *)

val pp_operand : Format.formatter -> dist -> unit
val pp : (Format.formatter -> 'lab -> unit) -> Format.formatter -> 'lab t -> unit
val pp_sym : Format.formatter -> string t -> unit
val pp_resolved : Format.formatter -> resolved -> unit
val to_string_sym : string t -> string
val to_string_resolved : resolved -> string

val insn_bytes : int
(** Every STRAIGHT instruction is one 32-bit word. *)
