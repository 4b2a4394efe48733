(** RV32IM code generation — the superscalar baseline's compiler back end
    (the paper's clang/LLVM + lowRISC stand-in, Section V-A).

    Pipeline: critical-edge splitting -> phi elimination (cycle-safe
    parallel copies at predecessor tails) -> instruction selection to
    virtual-register RV32IM with compare-and-branch fusion ->
    liveness-based linear-scan register allocation (callee-saved registers
    for call-crossing intervals, eviction of farther-ending intervals,
    spilling through two reserved scratch registers) -> prologue/epilogue
    insertion with the RISC-V calling convention. *)

exception Codegen_error of string

type item = string Riscv_isa.Isa.t Assembler.Asm.item

val func_label : string -> string
(** Assembly label of a function's entry (["f_<name>"]). *)

val block_label : string -> int -> string
(** Assembly label of basic block [bid] of function [name]
    ([".L<name>_<bid>"]); kept in [Image.symbols] as the per-block
    IR<->image mapping the translation validator consumes. *)

val ret_label : string -> string
(** Label of the shared epilogue ([".L<name>_ret"]); execution falls
    through it, so it is {e not} a block boundary. *)

val emit_function :
  globals:(string, int) Hashtbl.t -> Ssa_ir.Ir.func -> item list
(** Compile one function (mutates it: edge splitting, RPO layout).
    @raise Codegen_error on more than 8 register arguments or scratch
    exhaustion. *)

val layout_globals : Ssa_ir.Ir.data_def list -> (string, int) Hashtbl.t

val compile : Ssa_ir.Ir.program -> item list
(** Generate the complete RV32IM item list: the [_start] stub
    ([jal ra, main; ebreak]), all functions, and the data section. *)
