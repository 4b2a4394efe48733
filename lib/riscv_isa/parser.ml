(* Parser for one RV32IM assembly statement, already split into tokens by the
   shared assembler front end.  Accepts the usual GNU-style syntax:
   `addi a0, a0, 1`, `lw a1, 8(sp)`, `beq a0, zero, label`. *)

open Isa

let fail fmt =
  Diag.error ~context:[ ("source", "riscv-asm") ] Diag.Parse_error fmt

let parse_reg tok =
  match reg_of_name (String.lowercase_ascii tok) with
  | Some r -> r
  | None -> fail "unknown register %S" tok

let parse_imm tok =
  match int_of_string_opt tok with
  | Some i -> i
  | None -> fail "expected immediate, got %S" tok

(* "8(sp)" -> (8, reg sp) *)
let parse_mem tok =
  match String.index_opt tok '(' with
  | Some i when String.length tok > i + 1 && tok.[String.length tok - 1] = ')' ->
    let off = if i = 0 then 0 else parse_imm (String.sub tok 0 i) in
    let r = parse_reg (String.sub tok (i + 1) (String.length tok - i - 2)) in
    (off, r)
  | _ -> fail "expected mem operand like 8(sp), got %S" tok

let branches =
  [ ("beq", Beq); ("bne", Bne); ("blt", Blt); ("bge", Bge);
    ("bltu", Bltu); ("bgeu", Bgeu) ]

let alus =
  [ ("add", Add); ("sub", Sub); ("sll", Sll); ("slt", Slt); ("sltu", Sltu);
    ("xor", Xor); ("srl", Srl); ("sra", Sra); ("or", Or); ("and", And);
    ("mul", Mul); ("mulh", Mulh); ("mulhsu", Mulhsu); ("mulhu", Mulhu);
    ("div", Div); ("divu", Divu); ("rem", Rem); ("remu", Remu) ]

let aluis =
  [ ("addi", Addi); ("slti", Slti); ("sltiu", Sltiu); ("xori", Xori);
    ("ori", Ori); ("andi", Andi); ("slli", Slli); ("srli", Srli);
    ("srai", Srai) ]

(* [parse_insn tokens] parses a mnemonic and its comma-stripped operands.
   Raises a [Diag.Parse_error] error on malformed input. *)
let parse_insn (tokens : string list) : string t =
  match tokens with
  | [] -> fail "empty instruction"
  | mnemonic :: operands ->
    let m = String.lowercase_ascii mnemonic in
    (match List.assoc_opt m branches, List.assoc_opt m alus,
           List.assoc_opt m aluis, operands with
     | Some c, _, _, [ a; b; l ] -> Branch (c, parse_reg a, parse_reg b, l)
     | Some _, _, _, _ -> fail "%s expects rs1, rs2, label" m
     | _, Some op, _, [ rd; rs1; rs2 ] ->
       Alu (op, parse_reg rd, parse_reg rs1, parse_reg rs2)
     | _, Some _, _, _ -> fail "%s expects rd, rs1, rs2" m
     | _, _, Some op, [ rd; rs1; i ] ->
       Alui (op, parse_reg rd, parse_reg rs1, parse_imm i)
     | _, _, Some _, _ -> fail "%s expects rd, rs1, imm" m
     | None, None, None, _ ->
       (match m, operands with
        | "lui", [ rd; i ] -> Lui (parse_reg rd, Int32.of_int (parse_imm i))
        | "auipc", [ rd; i ] -> Auipc (parse_reg rd, Int32.of_int (parse_imm i))
        | "jal", [ rd; l ] -> Jal (parse_reg rd, l)
        | "jal", [ l ] -> Jal (1, l)
        | "j", [ l ] -> Jal (0, l)
        | "jalr", [ rd; rs; i ] -> Jalr (parse_reg rd, parse_reg rs, parse_imm i)
        | "ret", [] -> Jalr (0, 1, 0)
        | "lw", [ rd; mem ] ->
          let off, rs = parse_mem mem in
          Lw (parse_reg rd, rs, off)
        | "sw", [ rs2; mem ] ->
          let off, rs1 = parse_mem mem in
          Sw (parse_reg rs2, rs1, off)
        | "mv", [ rd; rs ] -> Alui (Addi, parse_reg rd, parse_reg rs, 0)
        | "li", [ rd; i ] ->
          let v = parse_imm i in
          if v >= -2048 && v < 2048 then Alui (Addi, parse_reg rd, 0, v)
          else fail "li immediate %d too large for a single addi" v
        | "nop", [] -> Alui (Addi, 0, 0, 0)
        | "ebreak", [] -> Ebreak
        | _ -> fail "unknown or malformed instruction %S" (String.concat " " tokens)))
