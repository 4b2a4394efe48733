(** Checkpointable simulation sessions.

    A {!session} is a live cycle-level run (either ISA) that can be
    advanced cycle by cycle, saved to a {!File} container at any cycle
    boundary, and later restored — from the file alone.  The fixpoint
    contract, enforced by [test/test_snapshot.ml]: save at any cycle,
    kill the process, restore, run to completion — every statistic
    (cycle count, CPI stack, activity counters, fault and checker
    counts) is bit-identical to the uninterrupted run.

    Restoring re-runs the deterministic functional simulator and proves
    the regenerated retirement stream identical to the one the
    checkpoint was taken against (the incremental {!Iss.Trace} digest,
    computed in bounded memory) before the restored session is handed
    out, so a snapshot can never silently resume against drifted code.
    A session computes that fingerprint at most once, and only when it
    is saved or restored. *)

type spec = {
  target : Straight_core.Experiment.target;
  params : Ooo_common.Params.t;
  workload : Workloads.t;
  max_insns : int;
  max_dist : int;
  check : bool;          (** arm the lockstep golden-model checker *)
}

val spec :
  ?max_insns:int -> ?max_dist:int -> ?check:bool ->
  model:Ooo_common.Params.t ->
  target:Straight_core.Experiment.target ->
  Workloads.t -> spec
(** Defaults mirror [Experiment.run]: 50M instruction budget, Table-I
    max distance, checker on.
    @raise Diag.Error code [Config_error] unless the model's core can
    run the target's code: a STRAIGHT target needs an RP model, the
    RV32IM target an RMT or checkpointed-RMT model. *)

val compile : spec -> Assembler.Image.t
(** Compile the spec's workload for its target (shared with the
    interval sampler, which needs the image for wrong-path decode). *)

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
    is recompiled and the regenerated stream is verified against the
    stored digest and functional outcome.
    @raise Diag.Error code [Snapshot_error] on any corrupt, truncated,
    version-mismatched, or workload-mismatched file. *)

val resume : spec -> string -> session
(** Like {!restore}, but additionally requires the checkpoint's
    embedded spec to match [spec] (same model, target, workload,
    budgets, checker arming) — the form used by the sweep pool, where a
    checkpoint must only ever resume its own grid point.
    @raise Diag.Error code [Snapshot_error] on mismatch. *)

val step : session -> unit
val finished : session -> bool
val cycle : session -> int

val save : session -> string -> unit
(** Atomically checkpoint the session at the current cycle boundary. *)

val finish : session -> Straight_core.Experiment.result

(** How {!run} ended. *)
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
  session -> outcome
(** The checkpoint-aware stepping loop on an existing session — the body
    of {!run}, usable after {!start} or {!restore} alike:

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
    [stop_at] is given without [checkpoint_path]. *)

val run :
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?restore_from:string ->
  ?stop_at:int ->
  ?deadlock_snapshot:string ->
  spec -> outcome
(** The full checkpoint-aware driver loop:

    - [restore_from]: resume from this checkpoint (spec-validated via
      {!resume}) instead of starting at cycle 0;
    - [checkpoint_every]: save to [checkpoint_path] every N cycles
      (0 = never);
    - [stop_at]: once the engine reaches this cycle, checkpoint to
      [checkpoint_path] and return {!Stopped} without finishing;
    - [deadlock_snapshot]: when the engine watchdog raises
      [Sim_deadlock], save a restorable snapshot here and re-raise with
      a [("snapshot", path)] context entry, so the wedged machine state
      can be re-entered under a debugger.

    See {!drive} for the flag semantics.
    @raise Diag.Error code [Config_error] when [checkpoint_every] or
    [stop_at] is given without [checkpoint_path]. *)

val run_restored : string -> Straight_core.Experiment.result
(** [restore] + step to completion + [finish]: one-call reproduction of
    a run from its checkpoint file. *)
