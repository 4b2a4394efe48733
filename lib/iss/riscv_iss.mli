(** Functional simulator for the RV32IM baseline ISA. *)

type config = { max_insns : int; collect_trace : bool }

val default_config : config

type session
(** An in-progress execution, mirroring {!Straight_iss}'s session shape
    so the sampling machinery drives both ISSes identically. *)

val start :
  ?config:config -> ?on_retire:(int -> Trace.uop -> unit) ->
  Assembler.Image.t -> session
(** Load the image; SP (x2) at the stack top, PC at the entry point.
    [on_retire], when given, is fed [(index, uop)] at every retirement —
    independently of [collect_trace]. *)

val step : session -> unit
(** Execute one instruction.
    @raise Diag.Error with code [Exec_error] and context [iss=riscv] on
    illegal instructions or PC out of text, [Fuel_exhausted] (context
    carries the retired count) on budget overrun, or
    [Mem_unaligned]/[Mem_mmio] on memory faults. *)

val step_uop : session -> Trace.uop
(** Like {!step}, and return the retired instruction's uop (see
    {!Straight_iss.step_uop}).  @raise as {!step}. *)

val uop_shape : int -> Riscv_isa.Isa.resolved -> Trace.uop
(** [uop_shape pc insn] is the uop [insn] at [pc] retires as with its
    dynamic outcomes unresolved: branches not taken, JALR's target
    [-1], memory address [0] — the wrong-path view of the static
    image. *)

val static_uop : session -> int -> Trace.uop option
(** As {!Straight_iss.static_uop}; [None] at [ebreak]. *)

val run_session : ?until:int -> session -> unit
(** Execute until [ebreak], or until the retired count reaches
    [until]. *)

val finish : session -> Trace.run

val session_memory : session -> Memory.t

val retired : session -> int
(** Instructions retired so far. *)

val halted : session -> bool
(** [ebreak] has retired. *)

(** The architectural state at an instruction boundary. *)
type arch_state = {
  a_pc : int;
  a_regs : int32 array;  (** x0..x31 *)
  a_instret : int;       (** retired instructions *)
}

val checkpoint : session -> arch_state
(** Capture the architectural state; memory is not part of it, as for
    {!Straight_iss.checkpoint}. *)

val resume :
  ?config:config -> ?on_retire:(int -> Trace.uop -> unit) ->
  Assembler.Image.t -> Memory.t -> arch_state -> session
(** Rebuild a session from a checkpoint and the memory it ran against. *)

val run : ?config:config -> Assembler.Image.t -> Trace.run
(** Execute from the entry point until [ebreak]; SP (x2) starts at the
    stack top.
    @raise Diag.Error with code [Exec_error] and context [iss=riscv] on
    illegal instructions or PC out of text, [Fuel_exhausted] (context
    carries the retired count) on budget overrun, or
    [Mem_unaligned]/[Mem_mmio] on memory faults. *)

(** Trace plus final architectural state, for differential comparison
    against the other executions of the same program. *)
type outcome = {
  run : Trace.run;
  mem : Memory.t;       (** final memory *)
  regs : int32 array;   (** final register file, x0..x31 *)
}

val run_outcome : ?config:config -> Assembler.Image.t -> outcome
(** Like {!run}, but also exposes the final memory and registers.
    @raise Diag.Error as {!run}. *)

val exit_value : outcome -> int32
(** [main]'s return value: register a0 at [ebreak]. *)
