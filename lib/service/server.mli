(** straightd — the resident simulation service.

    A single-process event loop on a Unix-domain socket speaking
    {!Proto} ([straightd-proto/1]): clients send one JSON request per
    line; the server answers with streamed ["event"] lines and one
    terminal ["result"]/["error"] line per request.  Simulation and
    compilation never run in the event loop — points become jobs on a
    [-j]-bounded {!Sweep.Pool.Persistent} worker session, results are
    memoized in the content-addressed [_sweep/] store, and identical
    in-flight requests coalesce onto one job whose single result fans
    out to every waiter.  A client disconnecting mid-job only removes
    its waiters; the job runs on and its record still lands in the
    store. *)

val run :
  socket_path:string ->
  ?procs:int ->
  ?cache_dir:string ->
  ?timeout_job:float ->
  ?log:(string -> unit) ->
  unit -> unit
(** Serve until a ["shutdown"] request, SIGINT, or SIGTERM, then reply
    ["daemon shutting down"] to any pending waiters, dismiss the
    workers, close every connection, and unlink [socket_path].  Signal
    dispositions are restored on every exit path.

    [procs] bounds concurrent jobs (default 2); [cache_dir] roots the
    store (default ["_sweep"], stale temp files swept at startup);
    [timeout_job] kills a worker stuck on one job longer than this many
    seconds (default 600); [log] receives one-line progress messages.

    @raise Diag.Error code [Service_error] when [socket_path] cannot be
    bound — including when a live daemon already answers on it. *)
