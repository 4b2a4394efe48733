(** Functional (instruction-set level) simulator for STRAIGHT.

    The architectural register file is the paper's key-value ring indexed
    by the register pointer (RP): instruction number [k] writes slot
    [k mod ring], a source distance [d] reads slot [(k - d) mod ring],
    distance 0 reads zero.  SP is the only overwritable register, updated
    in order by SPADD.

    The precise-interrupt contract (Section III-A) is exposed via
    {!checkpoint}/{!resume}: the architectural state is exactly
    {PC, SP, RP} plus the bounded window of the last
    {!Straight_isa.Isa.max_dist} register values.  {!Machine.save}
    encodes it with the memory. *)

type config = {
  max_insns : int;       (** abort runaway programs *)
  collect_trace : bool;  (** keep the uop trace for the timing models *)
  collect_dist : bool;   (** fill the source-distance histogram (Fig. 16) *)
}

val default_config : config

type session
(** An in-progress execution. *)

val start :
  ?config:config -> ?on_retire:(int -> Trace.uop -> unit) ->
  Assembler.Image.t -> session
(** Load the image; SP at the stack top, PC at the entry point.
    [on_retire], when given, is fed [(index, uop)] at every retirement —
    independently of [collect_trace] — so functional warming and the
    interval sampler can observe a full-speed run without accumulating
    the whole trace in memory. *)

val step : session -> unit
(** Execute one instruction.
    @raise Diag.Error with code [Exec_error] and context [iss=straight]
    on illegal instructions or PC out of text, [Fuel_exhausted] (context
    carries the retired count) on budget overrun, or
    [Mem_unaligned]/[Mem_mmio] on memory faults. *)

val step_uop : session -> Trace.uop
(** Like {!step}, and return the retired instruction's uop — what the
    cycle engine's window pulls from a live run.  Uops without a memory
    address or an indirect target are shared between retirements of the
    same text word.  @raise as {!step}. *)

val uop_shape : int -> Straight_isa.Isa.resolved -> Trace.uop
(** [uop_shape pc insn] is the uop [insn] at [pc] retires as with its
    dynamic outcomes unresolved: conditional branches not taken, JR's
    target [-1], memory address [0] — the wrong-path view of the static
    image. *)

val static_uop : session -> int -> Trace.uop option
(** Wrong-path fetch over the session's text: the {!uop_shape} at a pc,
    shared with the session's own retirements, or [None] at HALT, at a
    misaligned pc or outside the text. *)

val run_session : ?until:int -> session -> unit
(** Execute until HALT, or until the retired count reaches [until]. *)

val finish : session -> Trace.run

val session_memory : session -> Memory.t
(** The session's (shared, mutable) memory — inspect after HALT for
    differential comparison of final data. *)

val retired : session -> int
(** Instructions retired so far: the architectural RP. *)

val halted : session -> bool
(** HALT has retired. *)

val exit_value : session -> int32
(** [main]'s return value after a completed run of a compiled image: the
    startup stub is [_start: JAL f_main; HALT] and the epilogue places
    the return value immediately before JR, so it sits at distance 3
    once HALT has retired. *)

(** The precise architectural state at an instruction boundary:
    [a_window.(i)] is the register value at distance [i + 1]. *)
type arch_state = {
  a_pc : int;
  a_sp : int32;
  a_rp : int;
  a_window : int32 array;
}

val checkpoint : session -> arch_state
(** Capture the architectural state (memory is shared state and is not
    part of the register checkpoint, as on a conventional CPU). *)

val resume :
  ?config:config -> ?on_retire:(int -> Trace.uop -> unit) ->
  Assembler.Image.t -> Memory.t -> arch_state -> session
(** Rebuild a session from a checkpoint: only {PC, SP, RP, window} are
    needed — the paper's precise-interrupt property. *)

val run : ?config:config -> Assembler.Image.t -> Trace.run
(** Execute a whole program. *)
