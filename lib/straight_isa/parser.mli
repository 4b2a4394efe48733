(** Parser for one STRAIGHT assembly statement.  Syntax mirrors the
    paper's listings: [ADD [1] [2]], [ADDi [0] 42], [LD [3] 8],
    [ST [4] [7] 0], [BEZ [1] label], [JAL func], [SPADD 16]. *)

val parse_insn : string list -> string Isa.t
(** [parse_insn tokens] parses a mnemonic plus operand tokens (as produced
    by the assembler's tokenizer) into a symbolic instruction.  Mnemonics
    are case-insensitive.
    @raise Diag.Error with code [Parse_error] and context
    [source=straight-asm] on malformed input. *)
