(* STRAIGHT instruction set (Irie et al., MICRO 2018, Section III-A).

   Source operands are *distances*: "[k]" denotes the result value of the
   k-th previous instruction in the dynamic (control-flow) order.  Distance 0
   is the hard-wired zero register.  Every instruction occupies exactly one
   destination register (identified implicitly by its fetch order), so no
   destination field exists in the format.  The only overwritable
   architectural register is SP, manipulated exclusively by SPADD. *)

type dist = int
(** A source-operand distance. Valid range: [0, max_dist]; 0 reads zero. *)

let max_dist = 1023
(* A source field spans 10 bits; [0] is the zero register, so the farthest
   referable producer is 2^10 - 1 = 1023 instructions back (Section III-A). *)

type alu_op =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu
  | Mul | Mulh | Div | Divu | Rem | Remu

type alui_op =
  | Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltui

(* Instructions are parameterized by the representation of code targets:
   ['lab = string] for symbolic assembly, ['lab = int] once the assembler
   has resolved every target to a word-granular PC-relative offset. *)
type 'lab t =
  | Alu of alu_op * dist * dist
  | Alui of alui_op * dist * int32
  | Lui of int32                      (* dest := imm20 lsl 12 *)
  | Rmov of dist                      (* dest := [d] (register move padding) *)
  | Nop
  | Ld of dist * int                  (* dest := mem32[[base] + imm16] *)
  | St of dist * dist * int           (* mem32[[base] + 4*imm6] := [value]; dest := [value] *)
  | Bez of dist * 'lab                (* branch if [d] = 0 *)
  | Bnz of dist * 'lab                (* branch if [d] <> 0 *)
  | J of 'lab
  | Jal of 'lab                       (* dest := PC + 4; jump *)
  | Jr of dist                        (* jump to [d] (function return) *)
  | Spadd of int                      (* SP := SP + imm; dest := new SP *)
  | Halt

type resolved = int t
(** Instruction whose control-flow targets are PC-relative word offsets. *)

(* Classification used by the assembler, simulators and statistics
   (instruction-mix figure 15 buckets RMOV and NOP separately). *)
type kind = Kalu | Kmul | Kdiv | Kload | Kstore | Kbranch | Kjump | Krmov | Knop | Khalt

let kind = function
  | Alu ((Mul | Mulh), _, _) -> Kmul
  | Alu ((Div | Divu | Rem | Remu), _, _) -> Kdiv
  | Alu (_, _, _) | Alui (_, _, _) | Lui _ | Spadd _ -> Kalu
  | Rmov _ -> Krmov
  | Nop -> Knop
  | Ld (_, _) -> Kload
  | St (_, _, _) -> Kstore
  | Bez (_, _) | Bnz (_, _) -> Kbranch
  | J _ | Jal _ | Jr _ -> Kjump
  | Halt -> Khalt

(* Source distances of an instruction, in operand order. *)
let sources = function
  | Alu (_, a, b) -> [ a; b ]
  | Alui (_, a, _) -> [ a ]
  | Lui _ | Nop | J _ | Jal _ | Spadd _ | Halt -> []
  | Rmov a -> [ a ]
  | Ld (b, _) -> [ b ]
  | St (v, b, _) -> [ v; b ]
  | Bez (a, _) | Bnz (a, _) -> [ a ]
  | Jr a -> [ a ]

let map_label f = function
  | Bez (d, l) -> Bez (d, f l)
  | Bnz (d, l) -> Bnz (d, f l)
  | J l -> J (f l)
  | Jal l -> Jal (f l)
  | Alu (op, a, b) -> Alu (op, a, b)
  | Alui (op, a, i) -> Alui (op, a, i)
  | Lui i -> Lui i
  | Rmov d -> Rmov d
  | Nop -> Nop
  | Ld (b, o) -> Ld (b, o)
  | St (v, b, o) -> St (v, b, o)
  | Jr d -> Jr d
  | Spadd i -> Spadd i
  | Halt -> Halt

let alu_op_name = function
  | Add -> "ADD" | Sub -> "SUB" | And -> "AND" | Or -> "OR" | Xor -> "XOR"
  | Sll -> "SLL" | Srl -> "SRL" | Sra -> "SRA" | Slt -> "SLT" | Sltu -> "SLTU"
  | Mul -> "MUL" | Mulh -> "MULH" | Div -> "DIV" | Divu -> "DIVU"
  | Rem -> "REM" | Remu -> "REMU"

let alui_op_name = function
  | Addi -> "ADDi" | Andi -> "ANDi" | Ori -> "ORi" | Xori -> "XORi"
  | Slli -> "SLLi" | Srli -> "SRLi" | Srai -> "SRAi" | Slti -> "SLTi"
  | Sltui -> "SLTUi"

(* A 32-bit word as the simulators hold it: the OCaml int carrying its
   sign-extended value, so a register file is an [int array] and
   arithmetic boxes nothing.  [sext32] brings a result back to 32 bits
   and [u32] reads a word as unsigned. *)
let sext32 x = Int32.to_int (Int32.of_int x)
let u32 x = x land 0xFFFF_FFFF

(* Evaluate a register-register ALU operation with RV32-style semantics
   on sign-extended words (the functional simulator's representation).
   A product of two words needs 64 bits, one more than an OCaml int
   holds, so the high half is taken through [Int64]. *)
let eval_alu_int op (a : int) (b : int) : int =
  let sh = b land 31 in
  match op with
  | Add -> sext32 (a + b)
  | Sub -> sext32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> sext32 (a lsl sh)
  | Srl -> sext32 (u32 a lsr sh)
  | Sra -> a asr sh
  | Slt -> if a < b then 1 else 0
  | Sltu -> if u32 a < u32 b then 1 else 0
  | Mul -> sext32 (a * b)
  | Mulh ->
    Int64.to_int
      (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)
  (* [min_int / -1] overflows to [min_int], as [sext32] wraps it *)
  | Div -> if b = 0 then -1 else sext32 (a / b)
  | Divu -> if b = 0 then -1 else sext32 (u32 a / u32 b)
  | Rem -> if b = 0 then a else a mod b
  | Remu -> if b = 0 then a else sext32 (u32 a mod u32 b)

(* The same on [int32] words (constant folding, TV). *)
let eval_alu op (a : int32) (b : int32) : int32 =
  Int32.of_int (eval_alu_int op (Int32.to_int a) (Int32.to_int b))

let alu_of_alui = function
  | Addi -> Add | Andi -> And | Ori -> Or | Xori -> Xor
  | Slli -> Sll | Srli -> Srl | Srai -> Sra | Slti -> Slt | Sltui -> Sltu

let pp_operand fmt (d : dist) = Format.fprintf fmt "[%d]" d

let pp pp_lab fmt = function
  | Alu (op, a, b) ->
    Format.fprintf fmt "%s %a %a" (alu_op_name op) pp_operand a pp_operand b
  | Alui (op, a, i) ->
    Format.fprintf fmt "%s %a %ld" (alui_op_name op) pp_operand a i
  | Lui i -> Format.fprintf fmt "LUI %ld" i
  | Rmov a -> Format.fprintf fmt "RMOV %a" pp_operand a
  | Nop -> Format.fprintf fmt "NOP"
  | Ld (b, o) -> Format.fprintf fmt "LD %a %d" pp_operand b o
  | St (v, b, o) -> Format.fprintf fmt "ST %a %a %d" pp_operand v pp_operand b o
  | Bez (a, l) -> Format.fprintf fmt "BEZ %a %a" pp_operand a pp_lab l
  | Bnz (a, l) -> Format.fprintf fmt "BNZ %a %a" pp_operand a pp_lab l
  | J l -> Format.fprintf fmt "J %a" pp_lab l
  | Jal l -> Format.fprintf fmt "JAL %a" pp_lab l
  | Jr a -> Format.fprintf fmt "JR %a" pp_operand a
  | Spadd i -> Format.fprintf fmt "SPADD %d" i
  | Halt -> Format.fprintf fmt "HALT"

let pp_sym fmt i = pp Format.pp_print_string fmt i
let pp_resolved fmt i = pp (fun fmt o -> Format.fprintf fmt "%+d" o) fmt i
let to_string_sym i = Format.asprintf "%a" pp_sym i
let to_string_resolved i = Format.asprintf "%a" pp_resolved i

(* The word-aligned size in bytes of every STRAIGHT instruction. *)
let insn_bytes = 4
