(** Binary bit-field formats for STRAIGHT (our concrete realization of the
    paper's Fig. 1(b)).  Every instruction is one 32-bit word with a 6-bit
    opcode and 10-bit source-distance fields; because no destination field
    exists, immediates get the remaining bits (16-bit for ALU/load/branch,
    20-bit for LUI, 26-bit for jumps, 6-bit word-granular for stores). *)

val encode : Isa.resolved -> int32
(** [encode insn] packs a resolved instruction into its 32-bit word.
    @raise Diag.Error with code [Encode_error] and context
    [target=straight] when a field does not fit (distance out of
    [0, 1023], immediate out of range, misaligned store offset). *)

val decode : int32 -> Isa.resolved option
(** [decode w] unpacks a word; [None] on an illegal opcode.  Inverse of
    {!encode} on its range. *)

val st_max_offset : int
(** Largest byte offset representable in the ST format (word granular). *)

val st_min_offset : int
