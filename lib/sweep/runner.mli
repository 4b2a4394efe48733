(** Executes one grid point in-process and shapes the result record the
    sweep pipeline exchanges: worker -> driver (one compact JSON line),
    driver -> disk cache, cache -> aggregation, and the golden
    regression test ([test/sweep_golden.json]). *)

type record = {
  model : string;                 (** [Params.t.name] *)
  target : string;                (** [Experiment.target_label] *)
  workload : string;
  iterations : int;
  machine : string;               (** {!Grid.machine_label} *)
  width : int;                    (** issue width axis value *)
  rob : int;
  sched : int;
  predictor : string;
  ideal : bool;
  params_hash : string;           (** [Params.digest] *)
  cycles : int;
  committed : int;
  ipc : float;
  branch_mispredicts : int;
  cpi : Ooo_common.Stats.cpi_stack;
  host_seconds : float;           (** wall time of the engine+ISS run *)
  cached : bool;                  (** served from the on-disk cache *)
  sample : Sample.Spec.t option;  (** [Some] when the point was sampled *)
  sample_ci95 : float;            (** CPI 95% half-width (sampled only) *)
  sample_intervals : int;         (** intervals recombined (sampled only) *)
}

val run :
  ?checkpoint:string -> ?checkpoint_every:int -> ?sample_store:string ->
  Grid.point -> record
(** Compile, run the functional ISS, and simulate the point on the
    cycle engine (lockstep checker on, as in the bench harness).

    [checkpoint] arms crash recovery: the engine state is saved to that
    path every [checkpoint_every] cycles (default 20k), and when the
    file already exists the run resumes from it instead of starting at
    cycle 0 — so a retry after a kill repeats only the remaining
    cycles.  An unusable checkpoint file is deleted and the point
    restarts clean.  The caller owns deleting the file on success.

    A point with [sample = Some spec] instead runs through the interval
    sampler: checkpoints are materialized (or served) under
    [sample_store] (default ["_sweep"], the same root as the result
    cache), every interval is simulated sequentially in-process, and
    the recombined estimate fills the record — [cycles] is the
    extrapolated whole-run estimate, [sample_ci95] its error bar, and
    [branch_mispredicts] is 0 (not collected per interval).
    [checkpoint] is ignored for sampled points (each interval is
    already a restartable unit of work). *)

val to_json : record -> Json.t

val of_json : Json.t -> record
(** @raise Json.Parse_error on malformed input. *)

val compare_order : record -> record -> int
(** Deterministic sort for aggregated output: (workload, machine,
    width, predictor, ideal, rob, sched). *)
