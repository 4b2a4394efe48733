(** Interval checkpoints: materialization, execution, and the
    per-interval result record.

    [materialize] makes ONE functional (ISS) pass over the whole
    program.  While fast-forwarding it continuously warms a
    {!Ooo_common.Warm.t}; at each measured interval's window start it
    snapshots the warmed state, collects the window's uops, and writes
    the window out as a self-contained checkpoint the moment it closes —
    peak memory is one window (interval + warmup uops), never the whole
    trace.  Checkpoints are content-addressed under [dir] (the
    [_sweep/] store): a manifest keyed on the model, workload, sampling
    spec, and executable digests lets a re-run skip the ISS pass
    entirely when every file already exists.

    [run_file] turns one checkpoint into a measured {!result} in a
    fresh process: it rebuilds the warmed state and the sub-trace from
    the file, stands up the engine via the [?warm] handoff, simulates
    the detailed-warmup prefix (excluded from statistics), then the
    interval proper. *)

type entry = {
  index : int;    (** ordinal among measured intervals *)
  start : int;    (** first measured retirement (absolute) *)
  len : int;      (** measured retirements (last interval may truncate) *)
  warmup : int;   (** detailed-warmup retirements stored before [start] *)
  path : string;  (** checkpoint file *)
}

type plan = {
  key : string;           (** content address of the whole plan *)
  total_retired : int;    (** whole-run retired instructions *)
  entries : entry list;   (** in interval order *)
}

val materialize :
  dir:string -> Snapshot.Sim.spec -> Spec.t -> plan * bool
(** Returns the plan and whether it was served from the store ([true] =
    no ISS pass ran).  @raise Diag.Error code [Config_error] when the
    workload retires zero instructions. *)

type result = {
  r_index : int;
  r_start : int;
  r_len : int;
  r_warmup : int;
  r_cycles : int;        (** interval cycles, warmup excluded *)
  r_warm_cycles : int;   (** detailed-warmup cycles, excluded *)
  r_cpi : Ooo_common.Stats.cpi_stack;  (** buckets sum to [r_cycles] *)
  r_host_seconds : float;
}

val run_file : string -> result
(** Simulate one interval checkpoint.
    @raise Diag.Error code [Snapshot_error] on a corrupt or
    non-interval file, and whatever the engine raises (deadlock,
    checker divergence). *)

val result_to_json : result -> Json.t
val result_of_json : Json.t -> result
(** @raise Diag.Error code [Config_error] on a malformed object (the
    pool transports results as JSON lines). *)
