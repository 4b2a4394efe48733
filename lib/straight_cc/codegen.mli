(** STRAIGHT code generation (the paper's Section IV).

    The central obligation: every consumer must find each source operand
    at a statically known distance (number of dynamically executed
    instructions since the producer), identical along every control-flow
    path.  The generator realizes it with:

    - {b entry frames} for merge blocks — each predecessor's tail produces
      the live values in a canonical order, padded with RMOVs or, under
      RE+, filled by the sunk producers themselves, followed by exactly
      one transfer slot ([J], or [NOP] on fall-through) — Figs. 8/9;
    - {b distance bounding} — refresh batches of RMOVs whenever a live
      value's distance approaches the configured maximum;
    - the {b calling convention} of Figs. 5/6 — argument producers
      immediately before [JAL], the return value immediately before [JR],
      caller values that live across the call spilled to the
      [SPADD]-managed frame;
    - {b RE+ redundancy elimination} (Section IV-D) — producer sinking,
      return-address and call-crossing stack relays (store-once with
      dominance-checked validity, lazy reload, reload-into-slot),
      re-materialization of address values, [SPADD 0] frame-base
      re-materialization. *)

exception Codegen_error of string

(** [Raw] is the basic algorithm of Sections IV-A..C; [Re_plus] adds the
    Section IV-D redundancy elimination. *)
type opt_level = Raw | Re_plus

type config = {
  max_dist : int;     (** maximum source distance the code may use *)
  level : opt_level;
}

val default_config : config
(** RE+ at the architectural maximum distance (1023). *)

type item = string Straight_isa.Isa.t Assembler.Asm.item

val func_label : string -> string
(** Assembly label of a function's entry (["f_<name>"]); lands in the
    linked image's symbol table — the function side of the IR<->image
    mapping the translation validator walks. *)

val block_label : string -> int -> string
(** Assembly label of basic block [bid] of function [name]
    ([".L<name>_<bid>"]); every (post-layout) IR block keeps its label
    in [Image.symbols], giving the per-block IR<->image mapping. *)

val emit_function :
  config:config -> globals:(string, int) Hashtbl.t -> Ssa_ir.Ir.func ->
  item list
(** Compile one function (mutates it: critical-edge splitting, RPO
    layout).  [globals] maps data symbols to absolute addresses.
    @raise Codegen_error if register pressure exceeds what the configured
    maximum distance can hold, or on malformed input. *)

val layout_globals : Ssa_ir.Ir.data_def list -> (string, int) Hashtbl.t
(** Assign each data symbol its absolute address, mirroring the .data
    emission order. *)

val compile : ?config:config -> Ssa_ir.Ir.program -> item list
(** Generate the complete assembly item list: the [_start] stub ([JAL
    main; HALT]), all functions, and the data section. *)

(** Static instruction-mix statistics over generated items (input to the
    Fig. 15 comparison). *)
type stats = {
  total : int;
  rmov : int;
  nop : int;
  alu : int;
  load : int;
  store : int;
  ctrl : int;
}

val stats_of_items : item list -> stats
