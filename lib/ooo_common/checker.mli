(** Lockstep golden-model checker for the cycle-accurate engines.

    The cycle models are trace-driven: the ISS retirement stream is the
    golden model.  The checker observes every commit and validates, in
    lockstep, the invariants the paper's correctness story rests on:

    - {b program-order retirement}: correct-path commits walk the
      retirement indices 0, 1, 2, ... with no skip and no repeat
      (exactly one commit per uop);
    - {b golden lockstep}: the committed uop's PC and FU class equal the
      golden entry at that index (the engine's {!Window} supplies it),
      and its PC is where the golden run went after the previous
      correct-path commit (fall-through or resolved target);
    - {b ROB FIFO discipline}: commit seq numbers strictly increase and
      commit cycles never decrease;
    - {b STRAIGHT register discipline} (Rp models): every instruction
      writes exactly one fresh register (write-once) and every source
      distance lies in [1, max_dist] — the bounded register window;
    - {b RMT consistency} (superscalar models): RISC-V uop shape
      (dest in x0..x31, has_dest iff dest <> x0, no distance operands)
      and free-list accounting: the free physical-register count stays
      in [0, phys_regs - 32] at every commit and returns to exactly
      phys_regs - 32 once the run drains (no leak, no double free).

    A violation raises {!Diag.Error} with code [Checker_divergence] and
    the full divergence context — a structured diagnostic, not a crash. *)

type t

val create :
  ?max_dist:int ->
  rename:Params.rename_model ->
  retired:int ->
  unit -> t
(** [retired] is the golden run's retirement count: the stream must
    commit exactly that many uops.  [max_dist] bounds STRAIGHT source
    distances (default {!Straight_isa.Isa.max_dist} via the pipelines);
    ignored for RMT models. *)

val on_commit :
  t ->
  cycle:int -> seq:int -> trace_idx:int -> wrong_path:bool ->
  free_regs:int -> golden:Iss.Trace.uop ->
  Iss.Trace.uop -> unit
(** Validate one commit.  [trace_idx] is [-1] on the wrong path;
    [free_regs] is the engine's free physical-register count after the
    commit (ignored for Rp models); [golden] is the stream's entry at
    [trace_idx] (ignored on the wrong path).
    @raise Diag.Error on any invariant violation. *)

val on_finish : t -> cycles:int -> committed:int -> free_regs:int -> unit
(** End-of-run checks: every golden retirement committed exactly once
    and the free list is whole again.
    @raise Diag.Error on violation. *)

val commits_checked : t -> int
(** Number of commit events validated so far. *)

val save : Buffer.t -> t -> unit
(** Serialize the lockstep cursor (last trace index / seq / cycle, the
    commit count and the golden next PC).  The retired count and
    configuration are rebuilt from the workload on restore. *)

val load : Bin.reader -> t -> unit
(** Inverse of {!save} into a checker [create]d for the regenerated
    run.  @raise Bin.Corrupt on malformed input. *)
