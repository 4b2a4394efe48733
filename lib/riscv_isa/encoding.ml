(* Standard RV32IM binary encodings (R/I/S/B/U/J formats). *)

open Isa

let bad fmt =
  Diag.error ~context:[ ("target", "riscv") ] Diag.Encode_error fmt

let mask bits v = v land ((1 lsl bits) - 1)

let sext bits v =
  let m = 1 lsl (bits - 1) in
  (v land ((1 lsl bits) - 1) lxor m) - m

let check_signed what bits v =
  let lim = 1 lsl (bits - 1) in
  if v < -lim || v >= lim then bad "%s immediate %d out of signed %d bits" what v bits

(* Shift amounts live in the 5-bit rs2 field; anything outside [0,31] has
   no encoding (RV32I reserves shamt[5] != 0) and must be rejected rather
   than silently truncated. *)
let check_shamt what v =
  if v < 0 || v > 31 then bad "%s shift amount %d out of [0,31]" what v

(* U-format carries an unsigned 20-bit immediate. *)
let check_imm20 what v =
  if v < 0 || v > 0xFFFFF then bad "%s immediate %d out of 20 bits" what v

let enc_r ~funct7 ~funct3 ~opcode rd rs1 rs2 =
  (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (rd lsl 7) lor opcode

let enc_i ~funct3 ~opcode rd rs1 imm =
  check_signed "I" 12 imm;
  (mask 12 imm lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let enc_s ~funct3 ~opcode rs1 rs2 imm =
  check_signed "S" 12 imm;
  let imm = mask 12 imm in
  ((imm lsr 5) lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (mask 5 imm lsl 7) lor opcode

let enc_b ~funct3 ~opcode rs1 rs2 imm =
  if imm land 1 <> 0 then bad "branch offset %d not even" imm;
  check_signed "B" 13 imm;
  let imm = mask 13 imm in
  let b12 = (imm lsr 12) land 1 and b11 = (imm lsr 11) land 1 in
  let b10_5 = (imm lsr 5) land 0x3F and b4_1 = (imm lsr 1) land 0xF in
  (b12 lsl 31) lor (b10_5 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15)
  lor (funct3 lsl 12) lor (b4_1 lsl 8) lor (b11 lsl 7) lor opcode

let enc_u ~opcode rd imm20 =
  if imm20 < 0 || imm20 > 0xFFFFF then bad "U immediate %d out of 20 bits" imm20;
  (imm20 lsl 12) lor (rd lsl 7) lor opcode

let enc_j ~opcode rd imm =
  if imm land 1 <> 0 then bad "jump offset %d not even" imm;
  check_signed "J" 21 imm;
  let imm = mask 21 imm in
  let b20 = (imm lsr 20) land 1 and b19_12 = (imm lsr 12) land 0xFF in
  let b11 = (imm lsr 11) land 1 and b10_1 = (imm lsr 1) land 0x3FF in
  (b20 lsl 31) lor (b10_1 lsl 21) lor (b11 lsl 20) lor (b19_12 lsl 12)
  lor (rd lsl 7) lor opcode

let branch_funct3 = function
  | Beq -> 0 | Bne -> 1 | Blt -> 4 | Bge -> 5 | Bltu -> 6 | Bgeu -> 7

let alu_functs = function
  | Add -> (0, 0) | Sub -> (0x20, 0) | Sll -> (0, 1) | Slt -> (0, 2)
  | Sltu -> (0, 3) | Xor -> (0, 4) | Srl -> (0, 5) | Sra -> (0x20, 5)
  | Or -> (0, 6) | And -> (0, 7)
  | Mul -> (1, 0) | Mulh -> (1, 1) | Mulhsu -> (1, 2) | Mulhu -> (1, 3)
  | Div -> (1, 4) | Divu -> (1, 5) | Rem -> (1, 6) | Remu -> (1, 7)

let alui_funct3 = function
  | Addi -> 0 | Slti -> 2 | Sltiu -> 3 | Xori -> 4 | Ori -> 6 | Andi -> 7
  | Slli -> 1 | Srli -> 5 | Srai -> 5

(* [encode insn] produces the 32-bit RISC-V machine word. *)
let encode (insn : resolved) : int32 =
  let w =
    match insn with
    | Lui (rd, i) ->
      let i = Int32.to_int i in
      check_imm20 "lui" i;
      enc_u ~opcode:0x37 rd i
    | Auipc (rd, i) ->
      let i = Int32.to_int i in
      check_imm20 "auipc" i;
      enc_u ~opcode:0x17 rd i
    | Jal (rd, off) -> enc_j ~opcode:0x6F rd off
    | Jalr (rd, rs1, imm) -> enc_i ~funct3:0 ~opcode:0x67 rd rs1 imm
    | Branch (c, rs1, rs2, off) ->
      enc_b ~funct3:(branch_funct3 c) ~opcode:0x63 rs1 rs2 off
    | Lw (rd, rs1, imm) -> enc_i ~funct3:2 ~opcode:0x03 rd rs1 imm
    | Sw (rs2, rs1, imm) -> enc_s ~funct3:2 ~opcode:0x23 rs1 rs2 imm
    | Alui (op, rd, rs1, imm) ->
      (match op with
       | Slli -> check_shamt "slli" imm; enc_r ~funct7:0 ~funct3:1 ~opcode:0x13 rd rs1 imm
       | Srli -> check_shamt "srli" imm; enc_r ~funct7:0 ~funct3:5 ~opcode:0x13 rd rs1 imm
       | Srai -> check_shamt "srai" imm; enc_r ~funct7:0x20 ~funct3:5 ~opcode:0x13 rd rs1 imm
       | _ -> enc_i ~funct3:(alui_funct3 op) ~opcode:0x13 rd rs1 imm)
    | Alu (op, rd, rs1, rs2) ->
      let funct7, funct3 = alu_functs op in
      enc_r ~funct7 ~funct3 ~opcode:0x33 rd rs1 rs2
    | Ebreak -> (1 lsl 20) lor 0x73
  in
  Int32.of_int w

let dec_alu funct7 funct3 =
  match funct7, funct3 with
  | 0, 0 -> Some Add | 0x20, 0 -> Some Sub | 0, 1 -> Some Sll
  | 0, 2 -> Some Slt | 0, 3 -> Some Sltu | 0, 4 -> Some Xor
  | 0, 5 -> Some Srl | 0x20, 5 -> Some Sra | 0, 6 -> Some Or | 0, 7 -> Some And
  | 1, 0 -> Some Mul | 1, 1 -> Some Mulh | 1, 2 -> Some Mulhsu
  | 1, 3 -> Some Mulhu | 1, 4 -> Some Div | 1, 5 -> Some Divu
  | 1, 6 -> Some Rem | 1, 7 -> Some Remu
  | _ -> None

(* [decode w] is the inverse of [encode]; [None] on unsupported words. *)
let decode (w32 : int32) : resolved option =
  let w = Int32.to_int w32 land 0xFFFFFFFF in
  let opcode = w land 0x7F in
  let rd = (w lsr 7) land 0x1F in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1F in
  let rs2 = (w lsr 20) land 0x1F in
  let funct7 = (w lsr 25) land 0x7F in
  let imm_i = sext 12 (w lsr 20) in
  let imm_s = sext 12 (((w lsr 25) lsl 5) lor ((w lsr 7) land 0x1F)) in
  let imm_b =
    sext 13
      ((((w lsr 31) land 1) lsl 12) lor (((w lsr 7) land 1) lsl 11)
       lor (((w lsr 25) land 0x3F) lsl 5) lor (((w lsr 8) land 0xF) lsl 1))
  in
  let imm_u = (w lsr 12) land 0xFFFFF in
  let imm_j =
    sext 21
      ((((w lsr 31) land 1) lsl 20) lor (((w lsr 12) land 0xFF) lsl 12)
       lor (((w lsr 20) land 1) lsl 11) lor (((w lsr 21) land 0x3FF) lsl 1))
  in
  match opcode with
  | 0x37 -> Some (Lui (rd, Int32.of_int imm_u))
  | 0x17 -> Some (Auipc (rd, Int32.of_int imm_u))
  | 0x6F -> Some (Jal (rd, imm_j))
  | 0x67 when funct3 = 0 -> Some (Jalr (rd, rs1, imm_i))
  | 0x63 ->
    let cond =
      match funct3 with
      | 0 -> Some Beq | 1 -> Some Bne | 4 -> Some Blt | 5 -> Some Bge
      | 6 -> Some Bltu | 7 -> Some Bgeu | _ -> None
    in
    Option.map (fun c -> Branch (c, rs1, rs2, imm_b)) cond
  | 0x03 when funct3 = 2 -> Some (Lw (rd, rs1, imm_i))
  | 0x23 when funct3 = 2 -> Some (Sw (rs2, rs1, imm_s))
  | 0x13 ->
    (match funct3 with
     | 0 -> Some (Alui (Addi, rd, rs1, imm_i))
     | 2 -> Some (Alui (Slti, rd, rs1, imm_i))
     | 3 -> Some (Alui (Sltiu, rd, rs1, imm_i))
     | 4 -> Some (Alui (Xori, rd, rs1, imm_i))
     | 6 -> Some (Alui (Ori, rd, rs1, imm_i))
     | 7 -> Some (Alui (Andi, rd, rs1, imm_i))
     | 1 when funct7 = 0 -> Some (Alui (Slli, rd, rs1, rs2))
     | 5 when funct7 = 0 -> Some (Alui (Srli, rd, rs1, rs2))
     | 5 when funct7 = 0x20 -> Some (Alui (Srai, rd, rs1, rs2))
     | _ -> None)
  | 0x33 -> Option.map (fun op -> Alu (op, rd, rs1, rs2)) (dec_alu funct7 funct3)
  | 0x73 when w = (1 lsl 20) lor 0x73 -> Some Ebreak
  | _ -> None
