(** Checkpointable simulation sessions.

    A {!session} is a live cycle-level run (either ISA) that can be
    advanced cycle by cycle, saved to a {!File} container at any cycle
    boundary, and later restored — from the file alone.  The fixpoint
    contract, enforced by [test/test_snapshot.ml]: save at any cycle,
    kill the process, restore, run to completion — every statistic
    (cycle count, CPI stack, activity counters, fault and checker
    counts) is bit-identical to the uninterrupted run.

    Restoring re-runs the deterministic functional simulator and proves
    the regenerated run identical to the one the checkpoint was taken
    against before the restored session is handed out, so a snapshot
    can never silently resume against drifted code: the whole run's
    output and retired count, and the {!Iss.Trace} digest of the
    retirement prefix [\[0, F)] the engine had pulled when it was saved
    ({!File.meta.digested}) — the image names no stream index outside
    it.  The fingerprint comes from a cursor, a second ISS session
    created at the first save (or at restore) that only moves forward:
    periodic saves digest each retirement once, and a run that is never
    saved or restored does no digest work. *)

type spec = {
  target : Straight_core.Experiment.target;
  params : Ooo_common.Params.t;
  workload : Workloads.t;
  max_insns : int;
  max_dist : int;
  check : bool;          (** arm the lockstep golden-model checker *)
  opt : Ssa_ir.Passes.opt_level;  (** IR level the workload compiles at *)
}

val spec :
  ?max_insns:int -> ?max_dist:int -> ?check:bool ->
  ?opt:Ssa_ir.Passes.opt_level ->
  model:Ooo_common.Params.t ->
  target:Straight_core.Experiment.target ->
  Workloads.t -> spec
(** Defaults mirror [Experiment.run]: 50M instruction budget, Table-I
    max distance, checker on, O2.
    @raise Diag.Error code [Config_error] unless the model's core can
    run the target's code: a STRAIGHT target needs an RP model, the
    RV32IM target an RMT or checkpointed-RMT model. *)

val key : spec -> fidelity:string -> string
(** The content address of a run (hex MD5): every field of the spec,
    the workload's source digest, [fidelity] (["exact"], or a sampling
    spec's rendering) and {!File.code_digest}.  The sweep's result store
    and the interval sampler's plans are both keyed by it. *)

val compile : spec -> Assembler.Image.t
(** Compile the spec's workload for its target at its IR level (shared
    with the interval sampler, which needs the image for its ISS and
    for wrong-path decode). *)

val meta :
  spec -> kind:File.kind -> trace_digest:string -> digested:int ->
  File.meta
(** The container meta of a checkpoint taken under [spec] whose digest
    covers [digested] retirements, with the run's outcome fields
    (cycle, committed, output, retired, distance histogram) empty: an
    engine image fills them in, an interval file leaves them so.
    {!spec_of_meta} reads the spec back. *)

val spec_of_meta : string -> File.meta -> spec
(** Decode the spec embedded in a checkpoint's meta section; the string
    is the file path, used only for error context.
    @raise Diag.Error code [Snapshot_error] on an unknown target label
    or malformed model JSON. *)

type session

val start : spec -> session
(** Compile the workload, run the functional pre-pass, stand the engine
    up at cycle 0 over the streamed correct path. *)

val restore : string -> session
(** Rebuild a session from a checkpoint file alone: the embedded spec
    is recompiled, the regenerated run's output and retired count are
    compared with the recorded ones, and a cursor digests the
    regenerated prefix [\[0, F)] against the stored digest.
    @raise Diag.Error code [Snapshot_error] on any corrupt, truncated,
    version-mismatched, or workload-mismatched file, on an [F] below
    the committed count or past the retired count, and on an image
    that names a stream index at or past [F]. *)

val resume : spec -> string -> session
(** Like {!restore}, but additionally requires the checkpoint's
    embedded spec to have [spec]'s {!key} (same model, target,
    workload, budgets, checker arming, IR level) — the form used by the
    sweep pool, where a checkpoint must only ever resume its own grid
    point.
    @raise Diag.Error code [Snapshot_error] on mismatch. *)

val step : session -> unit
val finished : session -> bool
val cycle : session -> int

val engine : session -> Ooo_common.Engine.t
(** The live engine, for inspection. *)

val save : session -> string -> unit
(** Atomically checkpoint the session at the current cycle boundary,
    fingerprinting the prefix up to the window frontier [F] (the
    cursor's position, if that is further): the cursor advances from
    where the previous save left it. *)

val finish : session -> Straight_core.Experiment.result

(** How {!drive} ended. *)
type outcome =
  | Completed of Straight_core.Experiment.result
  | Stopped of { cycle : int; path : string }
      (** [stop_at] hit: a checkpoint was written and the run abandoned
          (a simulated kill — the pure-CLI half of the recovery drill) *)

val drive :
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?stop_at:int ->
  ?deadlock_snapshot:string ->
  session Lazy.t -> outcome
(** The checkpoint-aware driver loop, over [lazy (start sp)], [lazy
    (resume sp path)] or [lazy (restore path)] alike.  The options are
    checked before the session is forced, so a bad combination is
    refused before any compile or restore:

    - [checkpoint_every]: save to [checkpoint_path] every N cycles
      (0 = never);
    - [stop_at]: once the engine reaches this cycle, checkpoint to
      [checkpoint_path] and return {!Stopped} without finishing (a
      simulated kill);
    - [deadlock_snapshot]: when the engine watchdog raises
      [Sim_deadlock], save a restorable snapshot here and re-raise with
      a [("snapshot", path)] context entry, so the wedged machine state
      can be re-entered under a debugger.

    @raise Diag.Error code [Config_error] when [checkpoint_every] or
    [stop_at] is given without [checkpoint_path], before the session is
    forced. *)
