(** Word-granular sparse memory with the MMIO console, shared by both
    functional simulators.  Pages are 4 KiB of little-endian bytes, so
    {!save} writes each as it is held. *)

type t

val create : unit -> t

val read : t -> int -> int32
(** [read t addr] reads the 32-bit word at byte address [addr].
    @raise Diag.Error with code [Mem_unaligned] on unaligned access, or
    [Mem_mmio] on a load from the write-only MMIO window. *)

val write : t -> int -> int32 -> unit
(** [write t addr v] writes [v]; MMIO addresses drive the console instead
    ({!Assembler.Layout.mmio_putint} / [mmio_putchar]).
    @raise Diag.Error with code [Mem_unaligned] on unaligned access, or
    [Mem_mmio] on a store to an unmapped MMIO address. *)

val read_int : t -> int -> int
(** {!read} with the word as an OCaml int carrying its sign-extended
    value, the functional simulators' representation: nothing is boxed.
    @raise as {!read}. *)

val write_int : t -> int -> int -> unit
(** {!write} of the low 32 bits of an int.  @raise as {!write}. *)

val load_image : t -> Assembler.Image.t -> unit
(** Copy .text and .data into memory. *)

val output : t -> string
(** Console output accumulated so far. *)

val save : Buffer.t -> t -> unit
(** Encode the console output and the pages, in address order. *)

val load : Bin.reader -> t
(** Inverse of {!save}: a fresh memory with the same contents.
    @raise Bin.Corrupt on malformed input. *)
