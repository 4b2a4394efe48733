(** Content-addressed on-disk result cache.

    Each finished point is stored as [<dir>/cache/<key>.json] where
    {!key} is the MD5 over everything that determines the simulated
    outcome: the configuration digest ([Params.digest], every model
    field), the workload identity (name, iteration count, and a digest
    of its generated MiniC source), the compile/pipeline target, and a
    digest of the running executable (the "code hash" — any rebuild of
    the simulator invalidates the whole cache, so stale engines can
    never leak cycle counts).  Re-running a sweep therefore simulates
    only the points whose inputs changed. *)

val key : Grid.point -> string
(** Stable content address (hex). *)

val lookup : dir:string -> string -> Runner.record option
(** [lookup ~dir key] returns the cached record with [cached = true],
    or [None] on a miss or an unreadable/corrupt entry (corrupt entries
    are treated as misses, never fatal). *)

val save : dir:string -> string -> Runner.record -> unit
(** Atomic (write-to-temp + rename) so parallel sweeps and interrupted
    runs can never expose a torn entry ({!Snapshot.File.write_atomic}:
    a failed write or rename unlinks the temp file before the error
    propagates). *)

val sweep_stale : dir:string -> int
(** Remove orphaned ["<key>.json.tmp.<pid>"] entries under
    [<dir>/cache] whose writer pid is dead (a writer killed between the
    temp write and the rename leaves one behind; nothing else ever
    collects it).  Temp files of live pids — concurrent writers — are
    kept.  Returns the number removed.  Every store entry point also
    sweeps a directory the first time this process touches it; this
    function is for long-running callers ([straightd]) that want to
    re-sweep periodically. *)

(** {2 Generic JSON documents}

    The daemon memoizes compile artifacts (and any future non-record
    payload) in the same content-addressed tree, one subdirectory per
    document kind: [<dir>/<sub>/<key>.json].  Same atomicity and
    stale-temp hygiene as the record cache. *)

val lookup_doc : dir:string -> sub:string -> string -> Json.t option
(** [None] on a miss or an unparseable entry (treated as a miss). *)

val save_doc : dir:string -> sub:string -> string -> Json.t -> unit
