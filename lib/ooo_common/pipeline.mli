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
    empty): the lockstep checker is armed with that count, and callers
    read the outcome before the first {!Engine.step}.  The engine pulls
    the correct path from a second ISS session through a bounded
    {!Window}.  Neither session digests anything; a checkpoint
    fingerprints the prefix the window has pulled with a cursor of its
    own ([Snapshot.Sim]). *)
type session = {
  engine : Engine.t;
  run_info : Iss.Trace.run;
}

val region :
  ?check:bool -> ?max_dist:int -> ?warm:Warm.t ->
  ?digest:Iss.Trace.digest_state -> Params.t ->
  Iss.Machine.session -> length:int -> Engine.t
(** [region params s ~length]: the timing model at cycle 0 over the
    next [length] retirements of the live ISS session [s], stepped as
    fetch reaches them, with wrong-path fetch reading [s]'s decoded text
    ({!Iss.Machine.static_uop}) — behind every other constructor here
    and behind interval replay.  [warm] hands the engine warmed tables
    ({!Engine.create}); [digest] folds in every uop pulled
    ({!Iss.Trace.digest_add}, which allocates nothing), so a finished
    run has digested exactly its stream: interval replay proves its
    window this way. *)

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
    program when omitted): {!region} over the fast-forwarded session,
    with the warmed tables.  [run_info] covers the run up to the
    region's end; the lockstep checker (when [check]) validates the
    region's commit stream.
    @raise Diag.Error code [Config_error] when [from] is at or past the
    end of the program. *)

val finish : session -> result
(** Run the checker's end-of-run validation and freeze statistics. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Params.t -> Assembler.Image.t -> result
(** The timing model over the streamed correct path — [start] stepped
    to completion, with the same options.
    @raise Diag.Error on simulator deadlock or checker divergence. *)
