(** Reference interpreter for the SSA IR — the semantic oracle of the
    test suite: a MiniC program must print identical console output when
    interpreted here, when compiled to STRAIGHT and run on the STRAIGHT
    ISS, and when compiled to RV32IM and run on the RISC-V ISS.

    Global data is laid out exactly like the back ends lay it out
    (declaration order from {!Assembler.Layout.data_base}), so address
    arithmetic agrees across all three executions. *)

val run : ?max_steps:int -> Ir.program -> string * int32
(** [run p] interprets the program from [main]; returns the console output
    and [main]'s return value.
    @raise Diag.Error with code [Interp_error] on unknown
    globals/functions, unaligned accesses, or when [max_steps] (default
    50M) is exceeded. *)

(** Final state of an interpreted program, for differential comparison
    against the compiled executions of the same source. *)
type snapshot = {
  output : string;               (** console output *)
  ret : int32;                   (** [main]'s return value *)
  read_word : int -> int32;      (** byte address -> word, 0 if untouched *)
  global_addr : string -> int option;  (** data-symbol byte address *)
}

val run_snapshot : ?max_steps:int -> Ir.program -> snapshot
(** Like {!run}, but also exposes the final memory.
    @raise Diag.Error as {!run}. *)
