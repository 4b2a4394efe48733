(** The RV32IM subset used by the superscalar baseline (the paper's
    counterpart core, Section V-A): user-level integer + M-extension
    instructions with standard RISC-V semantics. *)

type reg = int
(** Architectural register x0..x31; x0 is hard-wired to zero. *)

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type alu_op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu

type alui_op = Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai

(** Instructions, parameterized by the code-target representation:
    [string] labels in symbolic assembly, [int] byte-granular PC-relative
    offsets once resolved. *)
type 'lab t =
  | Lui of reg * int32                (** rd := imm20 lsl 12 *)
  | Auipc of reg * int32
  | Jal of reg * 'lab
  | Jalr of reg * reg * int           (** rd := PC+4; PC := (rs1+imm) & ~1 *)
  | Branch of branch_cond * reg * reg * 'lab
  | Lw of reg * reg * int             (** rd := mem32[rs1 + imm] *)
  | Sw of reg * reg * int             (** mem32[rs1 + imm] := rs2 *)
  | Alui of alui_op * reg * reg * int (** rd, rs1, imm12 *)
  | Alu of alu_op * reg * reg * reg   (** rd, rs1, rs2 *)
  | Ebreak                            (** used as HALT in our environment *)

type resolved = int t

type kind = Kalu | Kmul | Kdiv | Kload | Kstore | Kbranch | Kjump | Khalt

val kind : 'lab t -> kind

val dest : 'lab t -> reg option
(** Destination register, if any ([x0] writes are discarded). *)

val sources : 'lab t -> reg list
(** Source registers read by the instruction (x0 reads included). *)

val map_label : ('a -> 'b) -> 'a t -> 'b t

val eval_alu : alu_op -> int32 -> int32 -> int32
(** RV32IM semantics: 5-bit shifts, division by zero yields [-1]/dividend,
    [min_int / -1 = min_int]. *)

val eval_branch : branch_cond -> int32 -> int32 -> bool

val eval_alu_int : alu_op -> int -> int -> int
(** {!eval_alu} on words held as OCaml ints carrying their sign-extended
    32-bit value, the functional simulator's representation; the result
    is sign-extended too.  [eval_alu] is this function on [int32]. *)

val eval_branch_int : branch_cond -> int -> int -> bool
(** {!eval_branch} on sign-extended words. *)

val sext32 : int -> int
(** The sign-extended value of an int's low 32 bits. *)

val u32 : int -> int
(** The low 32 bits of an int, read as unsigned. *)

val reg_name : reg -> string
(** ABI name ([zero], [ra], [sp], [t0], [a0], [s0], ...). *)

val reg_of_name : string -> reg option
(** Accepts ABI names and [x0]..[x31]. *)

val branch_name : branch_cond -> string
val alu_name : alu_op -> string
val alui_name : alui_op -> string
val alu_of_alui : alui_op -> alu_op

val pp : (Format.formatter -> 'lab -> unit) -> Format.formatter -> 'lab t -> unit
val pp_sym : Format.formatter -> string t -> unit
val pp_resolved : Format.formatter -> resolved -> unit
val to_string_sym : string t -> string

val insn_bytes : int
