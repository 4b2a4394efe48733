(** Content-addressed on-disk result cache.

    Each finished point is stored as [<dir>/cache/<key>.json] where
    {!key} is {!Snapshot.Sim.key} of the point's spec at its fidelity:
    every spec field (model digest, target, workload name, iterations
    and source digest, instruction budget, maximum distance, checker,
    IR level), exact or the sampling spec, and a digest of the running
    executable (the "code hash" — any rebuild of the simulator
    invalidates the whole cache, so stale engines can never leak cycle
    counts).  The interval sampler keys its plans the same way.
    Re-running a sweep therefore simulates only the points whose inputs
    changed. *)

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
(** Remove orphaned ["<name>.tmp.<pid>"] entries in every subdirectory
    of [dir] (the result cache, checkpoints, interval files, documents)
    whose writer pid is dead (a writer killed between the temp write
    and the rename leaves one behind; nothing else ever collects it).
    Temp files of live pids — concurrent writers — are kept.  Returns
    the number removed.  Every store entry point also sweeps a directory
    the first time this process touches it; the sweep driver calls this
    after its pool (and when interrupted), and long-running callers
    ([straightd]) re-sweep periodically. *)

(** {2 Generic JSON documents}

    The daemon memoizes compile artifacts (and any future non-record
    payload) in the same content-addressed tree, one subdirectory per
    document kind: [<dir>/<sub>/<key>.json].  Same atomicity and
    stale-temp hygiene as the record cache. *)

val lookup_doc : dir:string -> sub:string -> string -> Json.t option
(** [None] on a miss or an unparseable entry (treated as a miss). *)

val save_doc : dir:string -> sub:string -> string -> Json.t -> unit
