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

val run :
  ?max_insns:int -> ?collect_trace:bool -> ?collect_dist:bool ->
  ?on_retire:(int -> Trace.uop -> unit) -> Assembler.Image.t -> Trace.run
(** {!start}, {!run_session} to the end, {!finish}.
    @raise as the image's ISS does. *)

val static_uop : Assembler.Image.t -> int -> Trace.uop option
(** Decode a static instruction for wrong-path fetch: the ISS's
    [uop_shape] of the text word at a pc, or [None] at HALT/EBREAK, on
    an undecodable word, or outside .text.  [static_uop image] decodes
    the whole text once; the function it returns looks a pc up in that
    table and returns the shared uop. *)
