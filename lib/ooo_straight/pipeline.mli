(** The STRAIGHT out-of-order pipeline (the paper's Fig. 2): the shared
    engine instantiated with RP-based operand determination (Fig. 3), a
    6-stage front end, and single-ROB-read recovery (Fig. 4). *)

val static_uop : Assembler.Image.t -> int -> Iss.Trace.uop option
(** Decode a static instruction for wrong-path fetch ([None] at HALT or
    outside .text).  [static_uop image] decodes the whole text once;
    the function it returns looks a pc up in that table and returns the
    shared uop. *)

type result = {
  stats : Ooo_common.Engine.stats;
  output : string;                (** the program's console output *)
  dist_histogram : int array;     (** source-distance histogram (Fig. 16) *)
}

(** A live run: the cycle-level engine plus the functional outcome of
    the run it replays.  A pre-pass of the ISS without a trace completes
    before the engine exists, so [run_info]'s output, retired count and
    distance histogram are final from cycle 0 ([run_info.trace] is
    empty); the engine pulls the correct path from a second ISS session
    through a bounded {!Ooo_common.Window}. *)
type session = {
  engine : Ooo_common.Engine.t;
  run_info : Iss.Trace.run;
}

val start :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
(** Run the functional pre-pass (ISS faults surface here) and stand up
    the timing model at cycle 0 over the streamed correct path.
    [check] (default [true]) arms the lockstep golden-model checker
    against the ISS stream; [max_dist] (default
    {!Straight_isa.Isa.max_dist}) bounds checked source distances.
    Advance with {!Ooo_common.Engine.step} until
    {!Ooo_common.Engine.finished}, then call {!finish}. *)

val start_region :
  ?max_insns:int -> ?check:bool -> ?max_dist:int -> ?warm:bool ->
  from:int -> ?len:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
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
  Ooo_common.Params.t -> Assembler.Image.t ->
  Ooo_common.Bin.reader -> session
(** Like {!start}, but the engine state comes from a checkpoint image
    instead of cycle 0.  The ISS re-runs deterministically, and the
    streaming session skips ahead to the image's committed count; the
    caller (the snapshot layer) is responsible for checking that params
    and the regenerated stream match the checkpoint.
    @raise Ooo_common.Bin.Corrupt on a malformed or mismatched image. *)

val finish : session -> result
(** Run the checker's end-of-run validation and freeze statistics. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> result
(** The timing model over the streamed correct path — [start] stepped
    to completion.  [check] (default [true]) arms the lockstep
    golden-model checker against the ISS stream; [max_dist] (default
    {!Straight_isa.Isa.max_dist}) bounds checked source distances.
    @raise Diag.Error on simulator deadlock or checker divergence. *)
