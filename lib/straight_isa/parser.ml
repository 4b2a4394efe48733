(* Parser for one STRAIGHT assembly statement, already split into tokens.
   Syntax mirrors the paper's listings: `ADD [1] [2]`, `ADDi [0] 42`,
   `LD [3] 8`, `ST [4] [7] 0`, `BEZ [1] label`, `JAL func`, `SPADD 16`. *)

open Isa

let fail fmt =
  Diag.error ~context:[ ("source", "straight-asm") ] Diag.Parse_error fmt

let parse_dist tok =
  let n = String.length tok in
  if n >= 3 && tok.[0] = '[' && tok.[n - 1] = ']' then
    match int_of_string_opt (String.sub tok 1 (n - 2)) with
    | Some d when d >= 0 && d <= max_dist -> d
    | Some d -> fail "distance %d out of range" d
    | None -> fail "malformed distance %S" tok
  else fail "expected distance operand, got %S" tok

let parse_imm tok =
  match int_of_string_opt tok with
  | Some i -> i
  | None -> fail "expected immediate, got %S" tok

let parse_imm32 tok = Int32.of_int (parse_imm tok)

let alu_ops =
  [ ("ADD", Add); ("SUB", Sub); ("AND", And); ("OR", Or); ("XOR", Xor);
    ("SLL", Sll); ("SRL", Srl); ("SRA", Sra); ("SLT", Slt); ("SLTU", Sltu);
    ("MUL", Mul); ("MULH", Mulh); ("DIV", Div); ("DIVU", Divu);
    ("REM", Rem); ("REMU", Remu) ]

let alui_ops =
  [ ("ADDI", Addi); ("ANDI", Andi); ("ORI", Ori); ("XORI", Xori);
    ("SLLI", Slli); ("SRLI", Srli); ("SRAI", Srai); ("SLTI", Slti);
    ("SLTUI", Sltui) ]

(* [parse_insn tokens] parses a mnemonic plus operand tokens into a symbolic
   instruction.  Mnemonics are case-insensitive (the paper mixes `ADDi` and
   `ADDI` styles).  Raises a [Diag.Parse_error] error on malformed input. *)
let parse_insn (tokens : string list) : string t =
  match tokens with
  | [] -> fail "empty instruction"
  | mnemonic :: operands ->
    let m = String.uppercase_ascii mnemonic in
    (match List.assoc_opt m alu_ops, List.assoc_opt m alui_ops, operands with
     | Some op, _, [ a; b ] -> Alu (op, parse_dist a, parse_dist b)
     | Some _, _, _ -> fail "%s expects two register operands" m
     | _, Some op, [ a; i ] -> Alui (op, parse_dist a, parse_imm32 i)
     | _, Some _, _ -> fail "%s expects a register and an immediate" m
     | None, None, _ ->
       (match m, operands with
        | "LUI", [ i ] -> Lui (parse_imm32 i)
        | "RMOV", [ a ] -> Rmov (parse_dist a)
        | "NOP", [] -> Nop
        | "LD", [ b; o ] -> Ld (parse_dist b, parse_imm o)
        | "ST", [ v; b; o ] -> St (parse_dist v, parse_dist b, parse_imm o)
        | "ST", [ v; b ] -> St (parse_dist v, parse_dist b, 0)
        | "BEZ", [ a; l ] -> Bez (parse_dist a, l)
        | "BNZ", [ a; l ] -> Bnz (parse_dist a, l)
        | "J", [ l ] -> J l
        | "JAL", [ l ] -> Jal l
        | "JR", [ a ] -> Jr (parse_dist a)
        | "SPADD", [ i ] -> Spadd (parse_imm i)
        | "HALT", [] -> Halt
        | _ -> fail "unknown or malformed instruction %S" (String.concat " " tokens)))
