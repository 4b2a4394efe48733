(** The functional simulator an image names.

    An image records the ISA its text is encoded in
    ({!Assembler.Image.isa}); this module runs {!Straight_iss} or
    {!Riscv_iss} accordingly, so callers pass an image and never choose
    a simulator themselves. *)

type session
(** An in-progress execution on the image's own ISS. *)

val start :
  ?max_insns:int -> ?collect_trace:bool -> ?collect_dist:bool ->
  ?on_retire:(int -> Trace.uop -> unit) -> Assembler.Image.t -> session
(** Load the image on its ISS.  The options are the fields of the two
    ISS configurations, with their defaults: a 50M instruction budget,
    no trace, no distance histogram ([collect_dist] only applies to
    STRAIGHT; an RV32IM run's histogram is always empty).  [on_retire]
    is fed [(index, uop)] at every retirement. *)

val step_uop : session -> Trace.uop
(** Execute one instruction and return its uop
    ({!Straight_iss.step_uop}, {!Riscv_iss.step_uop}). *)

val run_session : ?until:int -> session -> unit
(** Execute until the program stops, or until the retired count reaches
    [until]. *)

val finish : session -> Trace.run

val retired : session -> int
(** Instructions retired so far. *)

val halted : session -> bool
(** The program's stop instruction (HALT, EBREAK) has retired. *)

val memory : session -> Memory.t
(** The session's (shared, mutable) memory. *)

val exit_value : session -> int32
(** [main]'s return value once a compiled image has stopped. *)

val save : Buffer.t -> session -> unit
(** Encode the architectural state at the session's instruction
    boundary: the ISA, the PC and registers (STRAIGHT: SP, RP and the
    last {!Straight_isa.Isa.max_dist} values, Section III-A; RV32IM:
    x0-x31 and instret), and the memory with its console output.
    @raise Invalid_argument once the program has stopped. *)

val load :
  ?max_insns:int -> ?on_retire:(int -> Trace.uop -> unit) ->
  Assembler.Image.t -> Bin.reader -> session
(** Inverse of {!save}: a session over [image] that continues where the
    saved one stood ([max_insns] and [on_retire] as for {!start}).
    @raise Bin.Corrupt on malformed input, a pc outside the text, or a
    state of the other ISA. *)

val run :
  ?max_insns:int -> ?collect_trace:bool -> ?collect_dist:bool ->
  ?on_retire:(int -> Trace.uop -> unit) -> Assembler.Image.t -> Trace.run
(** {!start}, {!run_session} to the end, {!finish}.
    @raise as the image's ISS does. *)

val static_uop : session -> int -> Trace.uop option
(** Wrong-path fetch over the session's own decoded text: the
    [uop_shape] of the word at a pc, shared with the session's not-taken
    retirements, or [None] at HALT/EBREAK, at a misaligned pc, or
    outside .text. *)
