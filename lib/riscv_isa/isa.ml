(* RV32IM subset used by the superscalar baseline (Section V-A: the paper's
   counterpart is an in-house cycle-accurate RV32IM core fed by clang/LLVM).
   We implement the user-level integer + M-extension instructions our
   compiler back-end emits, with the standard RISC-V encodings. *)

type reg = int
(** Architectural register x0..x31. x0 is hard-wired to zero. *)

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type alu_op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu

type alui_op = Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai

(* ['lab] is [string] in symbolic assembly, [int] (byte-granular PC-relative
   offset) once resolved. *)
type 'lab t =
  | Lui of reg * int32                (* rd := imm20 lsl 12 *)
  | Auipc of reg * int32
  | Jal of reg * 'lab
  | Jalr of reg * reg * int           (* rd := PC+4; PC := (rs1 + imm) & ~1 *)
  | Branch of branch_cond * reg * reg * 'lab
  | Lw of reg * reg * int             (* rd := mem32[rs1 + imm] *)
  | Sw of reg * reg * int             (* mem32[rs1 + imm] := rs2 *)
  | Alui of alui_op * reg * reg * int (* rd, rs1, imm12 *)
  | Alu of alu_op * reg * reg * reg   (* rd, rs1, rs2 *)
  | Ebreak                            (* used as HALT in our environment *)

type resolved = int t

type kind = Kalu | Kmul | Kdiv | Kload | Kstore | Kbranch | Kjump | Khalt

let kind = function
  | Alu ((Mul | Mulh | Mulhsu | Mulhu), _, _, _) -> Kmul
  | Alu ((Div | Divu | Rem | Remu), _, _, _) -> Kdiv
  | Alu (_, _, _, _) | Alui (_, _, _, _) | Lui (_, _) | Auipc (_, _) -> Kalu
  | Lw (_, _, _) -> Kload
  | Sw (_, _, _) -> Kstore
  | Branch (_, _, _, _) -> Kbranch
  | Jal (_, _) | Jalr (_, _, _) -> Kjump
  | Ebreak -> Khalt

(* Destination register, if any ([x0] writes are discarded). *)
let dest = function
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Lw (rd, _, _) | Alui (_, rd, _, _) | Alu (_, rd, _, _) ->
    if rd = 0 then None else Some rd
  | Branch (_, _, _, _) | Sw (_, _, _) | Ebreak -> None

(* Source registers read by the instruction (x0 reads included; they are
   always ready). *)
let sources = function
  | Lui (_, _) | Auipc (_, _) | Jal (_, _) | Ebreak -> []
  | Jalr (_, rs1, _) | Lw (_, rs1, _) | Alui (_, _, rs1, _) -> [ rs1 ]
  | Branch (_, rs1, rs2, _) | Sw (rs2, rs1, _) -> [ rs1; rs2 ]
  | Alu (_, _, rs1, rs2) -> [ rs1; rs2 ]

let map_label f = function
  | Jal (rd, l) -> Jal (rd, f l)
  | Branch (c, a, b, l) -> Branch (c, a, b, f l)
  | Lui (rd, i) -> Lui (rd, i)
  | Auipc (rd, i) -> Auipc (rd, i)
  | Jalr (rd, rs, i) -> Jalr (rd, rs, i)
  | Lw (rd, rs, i) -> Lw (rd, rs, i)
  | Sw (rs2, rs1, i) -> Sw (rs2, rs1, i)
  | Alui (op, rd, rs, i) -> Alui (op, rd, rs, i)
  | Alu (op, rd, rs1, rs2) -> Alu (op, rd, rs1, rs2)
  | Ebreak -> Ebreak

(* Words as the functional simulator holds them: OCaml ints carrying the
   sign-extended 32-bit value (see [Straight_isa.Isa.sext32]). *)
let sext32 x = Int32.to_int (Int32.of_int x)
let u32 x = x land 0xFFFF_FFFF

(* The high word of a 64-bit product; two 32-bit operands need one bit
   more than an OCaml int holds, so it is taken through [Int64]. *)
let mul_high a b =
  Int64.to_int
    (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)

let eval_alu_int op (a : int) (b : int) : int =
  let sh = b land 31 in
  match op with
  | Add -> sext32 (a + b)
  | Sub -> sext32 (a - b)
  | Sll -> sext32 (a lsl sh)
  | Slt -> if a < b then 1 else 0
  | Sltu -> if u32 a < u32 b then 1 else 0
  | Xor -> a lxor b
  | Srl -> sext32 (u32 a lsr sh)
  | Sra -> a asr sh
  | Or -> a lor b
  | And -> a land b
  | Mul -> sext32 (a * b)
  | Mulh -> mul_high a b
  | Mulhsu -> mul_high a (u32 b)
  | Mulhu -> sext32 (mul_high (u32 a) (u32 b))
  (* [min_int / -1] overflows to [min_int], as [sext32] wraps it *)
  | Div -> if b = 0 then -1 else sext32 (a / b)
  | Divu -> if b = 0 then -1 else sext32 (u32 a / u32 b)
  | Rem -> if b = 0 then a else a mod b
  | Remu -> if b = 0 then a else sext32 (u32 a mod u32 b)

let eval_branch_int cond (a : int) (b : int) : bool =
  match cond with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> a < b
  | Bge -> a >= b
  | Bltu -> u32 a < u32 b
  | Bgeu -> u32 a >= u32 b

let eval_alu op (a : int32) (b : int32) : int32 =
  Int32.of_int (eval_alu_int op (Int32.to_int a) (Int32.to_int b))

let eval_branch cond (a : int32) (b : int32) : bool =
  eval_branch_int cond (Int32.to_int a) (Int32.to_int b)

(* ABI register names, used by the printer and parser. *)
let reg_name r =
  match r with
  | 0 -> "zero" | 1 -> "ra" | 2 -> "sp" | 3 -> "gp" | 4 -> "tp"
  | 5 -> "t0" | 6 -> "t1" | 7 -> "t2" | 8 -> "s0" | 9 -> "s1"
  | r when r >= 10 && r <= 17 -> "a" ^ string_of_int (r - 10)
  | r when r >= 18 && r <= 27 -> "s" ^ string_of_int (r - 16)
  | r when r >= 28 && r <= 31 -> "t" ^ string_of_int (r - 25)
  | r -> "x" ^ string_of_int r

let reg_of_name =
  let table = Hashtbl.create 64 in
  for r = 0 to 31 do
    Hashtbl.replace table (reg_name r) r;
    Hashtbl.replace table ("x" ^ string_of_int r) r
  done;
  fun s -> Hashtbl.find_opt table s

let branch_name = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt" | Bge -> "bge"
  | Bltu -> "bltu" | Bgeu -> "bgeu"

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Sll -> "sll" | Slt -> "slt" | Sltu -> "sltu"
  | Xor -> "xor" | Srl -> "srl" | Sra -> "sra" | Or -> "or" | And -> "and"
  | Mul -> "mul" | Mulh -> "mulh" | Mulhsu -> "mulhsu" | Mulhu -> "mulhu"
  | Div -> "div" | Divu -> "divu" | Rem -> "rem" | Remu -> "remu"

let alui_name = function
  | Addi -> "addi" | Slti -> "slti" | Sltiu -> "sltiu" | Xori -> "xori"
  | Ori -> "ori" | Andi -> "andi" | Slli -> "slli" | Srli -> "srli"
  | Srai -> "srai"

let alu_of_alui = function
  | Addi -> Add | Slti -> Slt | Sltiu -> Sltu | Xori -> Xor | Ori -> Or
  | Andi -> And | Slli -> Sll | Srli -> Srl | Srai -> Sra

let pp pp_lab fmt insn =
  let r = reg_name in
  match insn with
  | Lui (rd, i) -> Format.fprintf fmt "lui %s, %ld" (r rd) i
  | Auipc (rd, i) -> Format.fprintf fmt "auipc %s, %ld" (r rd) i
  | Jal (rd, l) -> Format.fprintf fmt "jal %s, %a" (r rd) pp_lab l
  | Jalr (rd, rs, i) -> Format.fprintf fmt "jalr %s, %s, %d" (r rd) (r rs) i
  | Branch (c, a, b, l) ->
    Format.fprintf fmt "%s %s, %s, %a" (branch_name c) (r a) (r b) pp_lab l
  | Lw (rd, rs, i) -> Format.fprintf fmt "lw %s, %d(%s)" (r rd) i (r rs)
  | Sw (rs2, rs1, i) -> Format.fprintf fmt "sw %s, %d(%s)" (r rs2) i (r rs1)
  | Alui (op, rd, rs, i) ->
    Format.fprintf fmt "%s %s, %s, %d" (alui_name op) (r rd) (r rs) i
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf fmt "%s %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Ebreak -> Format.fprintf fmt "ebreak"

let pp_sym fmt i = pp Format.pp_print_string fmt i
let pp_resolved fmt i = pp (fun fmt o -> Format.fprintf fmt "%+d" o) fmt i
let to_string_sym i = Format.asprintf "%a" pp_sym i

let insn_bytes = 4
