(** Generic two-pass assembler + linker, functorized over the target ISA.
    Pass 1 lays out sections and records label addresses; pass 2 resolves
    control-flow targets to PC-relative offsets and encodes machine
    words. *)

type section = Text | Data

(** A unit of assembly input.  Compilers build [item list] values directly;
    [.s] text is tokenized into the same representation. *)
type 'insn item =
  | Label of string
  | Insn of 'insn                    (** instruction with symbolic targets *)
  | Section of section
  | Word of int32                    (** [.word]: one initialized data word *)
  | Space of int                     (** [.space n]: n zero bytes (aligned) *)
  | Equ of string * int              (** [.equ name value]: absolute symbol *)

(** What the assembler needs to know about a target ISA. *)
module type TARGET = sig
  type 'lab insn

  val isa : Image.isa
  (** Recorded in every image this target assembles. *)

  val parse_insn : string list -> string insn
  (** Parse a tokenized statement into a symbolic instruction. *)

  val map_label : ('a -> 'b) -> 'a insn -> 'b insn

  val encode : int insn -> int32

  val resolve_target : pc:int -> target:int -> int
  (** Turn an absolute [target] address into the offset stored in the
      instruction word (byte-granular for RISC-V, word-granular for
      STRAIGHT). *)

  val pp_sym : Format.formatter -> string insn -> unit
end

val tokenize_line : string -> string list
(** Tokenize one line of assembly: strip [#]/[;] comments, split on blanks
    and commas, and peel off leading [label:] tokens. *)

module Make (T : TARGET) : sig
  type program = string T.insn item list

  val parse_source : string -> program
  (** Convert assembly text into items.
      @raise Diag.Error with code [Asm_error] on malformed directives
      (or the ISA parser's [Parse_error] on a malformed instruction). *)

  val assemble : ?entry:string -> program -> Image.t
  (** Run both passes and link a loadable image.  [entry] names the start
      symbol (default ["_start"], falling back to ["main"], falling back
      to the first text address).
      @raise Diag.Error with code [Asm_error] on undefined or duplicate
      symbols (or the encoder's [Encode_error] on a field that does not
      fit). *)

  val assemble_source : ?entry:string -> string -> Image.t

  val print_program : Format.formatter -> program -> unit
  (** Pretty-print a program back to assembly text (round-trip tested). *)

  val program_to_string : program -> string
end

(** The two target instantiations. *)

module Straight_target : TARGET with type 'lab insn = 'lab Straight_isa.Isa.t
module Riscv_target : TARGET with type 'lab insn = 'lab Riscv_isa.Isa.t

module Straight : sig
  type program = string Straight_isa.Isa.t item list

  val parse_source : string -> program
  val assemble : ?entry:string -> program -> Image.t
  val assemble_source : ?entry:string -> string -> Image.t
  val print_program : Format.formatter -> program -> unit
  val program_to_string : program -> string
end

module Riscv : sig
  type program = string Riscv_isa.Isa.t item list

  val parse_source : string -> program
  val assemble : ?entry:string -> program -> Image.t
  val assemble_source : ?entry:string -> string -> Image.t
  val print_program : Format.formatter -> program -> unit
  val program_to_string : program -> string
end

val disassemble_with :
  decode:(int32 -> 'i option) ->
  pp:(Format.formatter -> 'i -> unit) ->
  Image.t -> string
(** Render the text section one decoded instruction per line, with symbol
    labels, addresses, and raw words. *)

val disassemble_straight : Image.t -> string
val disassemble_riscv : Image.t -> string
