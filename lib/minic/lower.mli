(** AST -> SSA lowering, following Braun et al.'s simple and efficient SSA
    construction: per-block variable definitions, operandless phis in
    not-yet-sealed blocks (loop headers), sealing once all predecessors
    are known, then trivial-phi elimination.

    Builtins: [putint(e)] and [putchar(e)] lower to MMIO stores
    ({!Assembler.Layout.mmio_putint} / [mmio_putchar]). *)

val remove_trivial_phis : Ssa_ir.Ir.func -> unit
(** Replace [phi(x, x, self)]-shaped phis by [x], to a fixpoint. *)

val lower_program : Ast.program -> Ssa_ir.Ir.program
(** Lower all functions (each validated) and turn globals into data
    definitions.
    @raise Diag.Error with code [Lower_error] on undefined
    variables/functions, arity mismatches, redeclarations, or a missing
    [main]. *)

val compile : string -> Ssa_ir.Ir.program
(** [compile src] is the front half of the paper's Fig. 7 flow: C-subset
    source -> SSA IR (the LLVM-IR stage).  Combines {!Parser.parse} and
    {!lower_program}. *)
