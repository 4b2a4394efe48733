(** A loadable program image: the output of the assembler/linker and the
    input of the functional and cycle-level simulators. *)

(** The instruction set the text section is encoded in, recorded by the
    assembler that encoded it. *)
type isa = Straight | Riscv

type t = {
  isa : isa;
  entry : int;                    (** PC of the first executed instruction *)
  text_base : int;
  text : int32 array;             (** encoded instruction words *)
  data_base : int;
  data : int32 array;             (** initialized data words *)
  symbols : (string * int) list;  (** label -> absolute address *)
}

val find_symbol : t -> string -> int option
val text_end : t -> int
val data_end : t -> int

val fetch_word : t -> int -> int32 option
(** [fetch_word t addr] reads an instruction word; [None] outside .text or
    misaligned. *)
