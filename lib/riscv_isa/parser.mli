(** Parser for one RV32IM assembly statement in GNU-style syntax:
    [addi a0, a0, 1], [lw a1, 8(sp)], [beq a0, zero, label], plus the
    pseudo-instructions [li] (small immediates), [mv], [j], [ret], [nop]. *)

val parse_insn : string list -> string Isa.t
(** [parse_insn tokens] parses a mnemonic and its comma-stripped operands.
    @raise Diag.Error with code [Parse_error] and context
    [source=riscv-asm] on malformed input. *)
