(** The out-of-order pipeline for either ISA: the shared {!Engine}
    replaying the correct path that the image's functional simulator
    ({!Iss.Machine}) retires.

    Everything the paper varies between the STRAIGHT core (Fig. 2) and
    the superscalar RV32IM baseline (Section V-A) is a {!Params} field
    the engine reads: RP-based operand determination (Fig. 3) or RMT
    renaming, the front-end depth, and single-ROB-read recovery
    (Fig. 4) or the ROB walk.  This module only connects the image's
    ISS to the engine, so one copy serves both cores. *)

type result = {
  stats : Engine.stats;
  output : string;                (** the program's console output *)
  dist_histogram : int array;
      (** source-distance histogram (Fig. 16); empty for RV32IM *)
}

(** A live run: the cycle-level engine plus the functional outcome of
    the run it replays.  A pre-pass of the ISS without a trace completes
    before the engine exists, so [run_info]'s output, retired count and
    distance histogram are final from cycle 0 ([run_info.trace] is
    empty); the engine pulls the correct path from a second ISS session
    through a bounded {!Window}. *)
type session = {
  engine : Engine.t;
  run_info : Iss.Trace.run;
}

val checker :
  check:bool -> max_dist:int -> Params.t -> retired:int -> Checker.t option
(** The lockstep golden-model checker for a stream of [retired]
    commits, or [None] when [check] is false.  [max_dist] bounds checked
    source distances on RP models; RMT checkers ignore it. *)

val start :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Params.t -> Assembler.Image.t -> session
(** Run the functional pre-pass (ISS faults surface here) and stand up
    the timing model at cycle 0 over the streamed correct path.
    [check] (default [true]) arms the lockstep golden-model checker
    against the ISS stream; [max_dist] (default
    {!Straight_isa.Isa.max_dist}) bounds checked source distances.
    Advance with {!Engine.step} until {!Engine.finished}, then call
    {!finish}. *)

val start_region :
  ?max_insns:int -> ?check:bool -> ?max_dist:int -> ?warm:bool ->
  from:int -> ?len:int ->
  Params.t -> Assembler.Image.t -> session
(** Fast-forward: run the functional simulator over the first [from]
    retirements at full speed — functionally warming the caches, branch
    predictor and RAS unless [warm] is [false] — then stand up the
    timing model over the next [len] retirements only (to the end of the
    program when omitted), with the warmed tables handed to the engine.
    [run_info] covers the run up to the region's end; the lockstep
    checker (when [check]) validates the region's commit stream.
    @raise Diag.Error code [Config_error] when [from] is at or past the
    end of the program. *)

val resume :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Params.t -> Assembler.Image.t -> Bin.reader -> session
(** Like {!start}, but the engine state comes from a checkpoint image
    instead of cycle 0.  The ISS re-runs deterministically, and the
    streaming session skips ahead to the image's committed count; the
    caller (the snapshot layer) is responsible for checking that params
    and the regenerated stream match the checkpoint.
    @raise Bin.Corrupt on a malformed or mismatched image. *)

val finish : session -> result
(** Run the checker's end-of-run validation and freeze statistics. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Params.t -> Assembler.Image.t -> result
(** The timing model over the streamed correct path — [start] stepped
    to completion, with the same options.
    @raise Diag.Error on simulator deadlock or checker divergence. *)
