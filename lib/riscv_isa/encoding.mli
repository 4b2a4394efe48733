(** Standard RV32IM binary encodings (R/I/S/B/U/J formats). *)

val encode : Isa.resolved -> int32
(** [encode insn] produces the 32-bit RISC-V machine word.
    @raise Diag.Error with code [Encode_error] and context
    [target=riscv] when an immediate does not fit its field, a
    branch/jump offset is odd, or a shift amount is outside [0,31]. *)

val decode : int32 -> Isa.resolved option
(** [decode w] is the inverse of {!encode}; [None] on unsupported words. *)
