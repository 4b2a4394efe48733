(** Fork-based worker pool.

    One worker session, {!Persistent}: it forks [procs] workers, hands
    each idle worker the next queued job (an integer id and a string
    payload) over a pipe, and collects one result line per job.  The
    resident daemon ([straightd]) drives a session directly.  {!run} is
    the batch policy over a session — a fixed job list with retries,
    backoff and SIGINT/SIGTERM shutdown — used by the sweep driver and
    [straightsim -sample]. *)

exception Interrupted of int
(** Raised out of {!run} after a SIGINT/SIGTERM shutdown; carries the
    OCaml signal number ({!posix_signal} maps it for the CLI's
    [128 + signal] exit code). *)

val posix_signal : int -> int
(** POSIX number of a signal {!run} traps: 2 for [Sys.sigint], 15 for
    [Sys.sigterm]. *)

val diag_fields : Diag.t -> (string * Json.t) list
(** A {!Diag.t} as JSON object fields: ["code"] (its
    {!Diag.code_name}), ["message"], and ["context"], an object of
    strings, only when it has context.  A worker's error crosses the
    result pipe in this form, and the daemon's error replies embed
    it. *)

(** Scheduling notifications (today: retries). *)
type event =
  | Retry of { job : int; attempt : int; backoff : float; reason : string }
      (** [job] will be re-run as attempt [attempt] (1 = first retry)
          after [backoff] seconds, because of [reason]. *)

(** Persistent worker sessions.

    Jobs arrive over time and carry a string payload.  The session
    installs no signal handlers and never retries — a resident daemon
    owns its signals and decides retry policy per request, and {!run}
    adds its own.  The caller should ignore SIGPIPE for the session's
    lifetime (a worker dying between [submit] and the pipe write would
    otherwise kill the parent); worker loss is reported as an [Error]
    result and the worker respawned.

    A job's failure is a {!Diag.t}: the one the worker raised as
    [Diag.Error], code, message and context intact; a [Service_error]
    carrying the [Printexc] text of any other exception; or a
    [Service_error] for the pool's own failures, whose messages are
    ["worker died"], ["timeout after Ns"] and
    ["pool protocol violation: <line>"]. *)
module Persistent : sig
  type t

  val create :
    procs:int ->
    ?at_fork:(unit -> unit) ->
    worker:(string -> string) ->
    unit ->
    t
  (** Fork [max 1 procs] resident workers running [worker] per job.
      [at_fork] runs in each child right after the fork (including
      respawns) — the daemon's chance to close inherited fds (listen
      socket, client connections) so a worker never pins them open. *)

  val procs : t -> int

  val running : t -> int
  (** Workers with a job in flight. *)

  val queued : t -> int
  (** Submitted jobs not yet dispatched. *)

  val result_fds : t -> Unix.file_descr list
  (** Result-pipe fds of busy workers, for the caller's [select]. *)

  val submit : t -> id:int -> string -> unit
  (** Queue a job (payload truncated at the first newline) and dispatch
      it if a worker is idle.  [id] tags the result in {!poll}.
      @raise Invalid_argument after {!shutdown}. *)

  val poll : ?timeout_job:float -> t -> (int * (string, Diag.t) result) list
  (** Non-blocking: collect every finished job, respawn dead or
      protocol-violating workers (their in-flight jobs come back as
      [Error]), kill workers whose job ran past [timeout_job] seconds
      (0 = no limit), then dispatch queued jobs onto idle workers. *)

  val shutdown : t -> unit
  (** Dismiss and reap every worker (idle ones exit on EOF, busy ones
      are killed).  Idempotent. *)
end

val run :
  jobs:int ->
  worker:(int -> string) ->
  procs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?on_event:(event -> unit) ->
  ?on_interrupt:(unit -> unit) ->
  on_result:(int -> (string, string) result -> unit) ->
  unit ->
  unit
(** [run ~jobs ~worker ~procs ~on_result ()] runs jobs [0 .. jobs-1] on
    one {!Persistent} session of [min procs jobs] workers (at least 1):
    job [i] is submitted with payload [string_of_int i] and the child
    runs [worker i].  Results are strings produced by [worker] in the
    child (a compact JSON line in the sweep), truncated at the first
    newline; the parent receives them in completion order via
    [on_result].  [jobs = 0] returns without forking.

    Fault handling:
    - a job that runs past [timeout] seconds gets its worker killed
      (SIGKILL) and is retried on a fresh worker up to [retries] times;
    - a worker that raises ships the error back and the job is retried
      the same way;
    - a worker that dies unexpectedly (EOF on its result pipe) is
      respawned and its in-flight job retried;
    - each retry waits out a capped exponential backoff
      ([min 30 (0.25 * 2^(attempt-1))] seconds, jittered
      deterministically in [0.75, 1.25] from the job index and attempt
      number) before becoming eligible again, so a point that dies from
      transient resource pressure does not immediately re-trip it.
      Every retry is announced through [on_event].

    A job whose retries are exhausted is reported as [Error msg]; [msg]
    (and a retry's [reason]) is the failure's message for the pool's own
    failures and for an exception that is not a [Diag.Error] (the
    {!Persistent} [Service_error]s), and {!Diag.to_string} of any other
    [Diag].  [run] returns once every job has a result.  The caller must flush
    [stdout]/[stderr] before calling (children inherit the buffers).

    Interruption: [run] installs SIGINT/SIGTERM handlers for its
    duration.  On either signal it kills and reaps every worker (no
    orphan processes), runs [on_interrupt] (the caller's chance to
    sweep temp files), restores the previous handlers, and raises
    {!Interrupted} with the signal number — partial results already
    delivered through [on_result] remain valid.

    Cleanup is unconditional: whatever ends [run] — normal completion,
    {!Interrupted}, or an exception escaping [on_result]/[on_event] —
    the session is shut down (every worker reaped) and the previous
    signal handlers are restored before the exception propagates.

    @param timeout per-attempt wall-clock budget, seconds (default 600;
    0 = no limit)
    @param retries extra attempts after the first failure (default 1)
    @raise Interrupted on SIGINT/SIGTERM. *)
