(** Sweep orchestration: take a grid's points, serve what the cache
    already knows, fan the rest out over the {!Pool}, persist each fresh result,
    and aggregate.

    [procs = 0] runs every point in-process (no fork) — the mode the
    test suite uses; [procs >= 1] forks that many workers. *)

type summary = {
  total : int;
  executed : int;       (** points simulated this invocation *)
  cached : int;         (** points served from the on-disk cache *)
  failed : int;         (** points whose retries were exhausted *)
  wall_seconds : float;
}

val sweep :
  ?procs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?cache_dir:string ->
  ?checkpoint_every:int ->
  ?on_record:(Runner.record -> unit) ->
  ?on_retry:(Grid.point -> attempt:int -> backoff:float -> string -> unit) ->
  Grid.point list ->
  Runner.record list * summary
(** Records come back sorted by {!Runner.compare_order}; failed points
    are absent from the list and counted in the summary.  [on_record]
    fires in completion order as results arrive (the JSONL stream);
    [on_retry] fires when a point's attempt failed and it is being
    rescheduled after [backoff] seconds.
    Defaults: [procs = 0], [timeout = 600.], [retries = 1],
    [cache_dir = "_sweep"], [checkpoint_every = 20_000].

    Crash recovery (forked mode): each in-flight point checkpoints its
    engine to [<cache_dir>/ckpt/<key>.snap] every [checkpoint_every]
    cycles (0 disables), a retried point resumes from that file
    instead of restarting, and the file is deleted once the point
    lands in the cache — so an interrupted sweep repeats only the
    cycles since the last checkpoint.  On SIGINT/SIGTERM the pool
    kills and reaps every worker, torn temp files are swept, and
    {!Pool.Interrupted} escapes to the caller; completed points are
    already in the cache. *)

val to_json : Json.t -> summary -> Runner.record list -> Json.t
(** The [sweep.json] document (schema ["straight-sweep/1"]); the first
    argument describes the grid ({!Grid.spec_to_json}, or the name of a
    point list such as the paper grid). *)
