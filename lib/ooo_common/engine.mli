(** Cycle-level out-of-order core model, shared between the STRAIGHT and
    superscalar pipelines (Section V-A: "both simulators share common
    codes for the most part").

    Trace-driven on the correct path — the uops come through a bounded
    {!Window} over the retirement stream, pulled as fetch reaches them —
    and fetches wrong-path instructions from the static image after a
    misprediction so that squash cost (walk length, resource pollution)
    is modeled.  The two cores differ exactly
    where the paper says they do: operand determination (RMT + free list
    vs. RP arithmetic), front-end depth, and recovery (serialized ROB walk
    vs. a single ROB read).  See DESIGN.md for the modeling notes. *)

(** Micro-event counters consumed by the power model (Fig. 17). *)
type activity = {
  mutable rename_reads : int;      (** RMT read ports exercised *)
  mutable rename_writes : int;
  mutable freelist_ops : int;
  mutable rp_ops : int;            (** STRAIGHT operand-determination adds *)
  mutable rf_reads : int;
  mutable rf_writes : int;
  mutable iq_wakeups : int;
  mutable rob_writes : int;
  mutable rob_walk_steps : int;
  mutable alu_ops : int;
  mutable agu_ops : int;
}

val fresh_activity : unit -> activity

val activity_fields :
  (string * (activity -> int) * (activity -> int -> unit)) list
(** Every counter with its name, getter and setter, in the order the
    engine image stores them. *)

type stats = {
  cycles : int;
  committed : int;                 (** correct-path retired instructions *)
  wrong_path_fetched : int;
  branch_mispredicts : int;
  return_mispredicts : int;
  memdep_violations : int;
  walk_stall_cycles : int;
  spadd_stall_slots : int;         (** dispatch slots lost to the SPADD limit *)
  checkpoint_stall_slots : int;
  l1i_misses : int;
  l1d_misses : int;
  l1d_accesses : int;
  mix : (string * int) list;       (** retired kinds (Fig. 15 buckets) *)
  activity : activity;
  ipc : float;
  faults_injected : int;           (** fault-injection events fired *)
  commits_checked : int;           (** lockstep-checker validations; 0 = off *)
  cpi_stack : Stats.cpi_stack;
      (** per-cycle attribution; buckets sum to [cycles] *)
}

type t
(** A live simulation: the full engine state, advanced one cycle at a
    time.  [run] is [create] + [step] to completion + [finish]. *)

val create :
  Params.t ->
  window:Window.t ->
  decode_static:(int -> Iss.Trace.uop option) ->
  ?checker:Checker.t ->
  ?warm:Warm.t ->
  unit -> t
(** Fresh engine at cycle 0 over an unread [window].  When [warm] is
    supplied the engine adopts its functionally warmed caches, branch
    predictor and RAS instead of cold ones (their access/miss counters
    are zeroed first so measured stats cover only the detailed region)
    — the fast-forward/sampling handoff.  The window's stream may be any
    contiguous slice of a program's retirement stream: RP-relative
    producers that precede the slice are treated as already committed,
    matching a mid-program start.  The engine pulls uops as fetch
    reaches them and releases them at commit, so the window never holds
    more than the uops in flight.
    @raise Diag.Error with code [Config_error] on an empty stream. *)

val step : t -> unit
(** Simulate one cycle.  The watchdog runs first, at the cycle boundary,
    so a [Sim_deadlock] raise leaves the engine in a consistent,
    checkpointable state.
    @raise Diag.Error with code [Sim_deadlock] when the watchdog trips
    (total cycle budget exceeded, or no commit for 20k cycles) — the
    diagnostic context is a pipeline snapshot naming the stuck
    instruction and all queue occupancies — and code
    [Checker_divergence] from the checker. *)

val finished : t -> bool
(** The last stream entry has committed; [step] is no longer
    meaningful. *)

val cycle : t -> int
val committed_count : t -> int

val window : t -> Window.t
(** The stream window the engine reads (for its high-water mark). *)

val inflight : t -> int
(** Instructions now in the ROB or the front-end queue, wrong path
    included. *)

val wrong_path_inflight : t -> int
(** The wrong-path share of {!inflight}. *)

val cpi_now : t -> Stats.cpi_stack
(** Mid-run snapshot of the cycle-accounting buckets (buckets sum to
    {!cycle}).  The interval sampler subtracts the snapshot taken at the
    warmup boundary from the final stack via {!Stats.cpi_sub}. *)

val finish : t -> stats
(** Run the checker's end-of-run validation (when present) and freeze
    the statistics.  @raise Diag.Error code [Checker_divergence]. *)

val run :
  Params.t ->
  window:Window.t ->
  decode_static:(int -> Iss.Trace.uop option) ->
  ?checker:Checker.t ->
  unit -> stats
(** [run p ~window ~decode_static ?checker ()] simulates the whole
    correct-path stream on model [p]; [decode_static pc] supplies
    wrong-path instructions from the program image ([None] stalls
    wrong-path fetch).  [checker], when present, is fed every commit and
    the end-of-run state (lockstep golden-model checking).  Faults from
    [p.inject] are injected at fetch and issue opportunities.

    @raise Diag.Error with code [Config_error] on an empty stream, code
    [Sim_deadlock] when the watchdog trips (total cycle budget exceeded,
    or no commit for 20k cycles) — the diagnostic context is a pipeline
    snapshot naming the stuck instruction and all queue occupancies —
    and code [Checker_divergence] from the checker. *)

val save : Buffer.t -> t -> unit
(** Serialize the complete engine state (window, deques, issue queue,
    timing wheel, predictors, caches, fault injector, CPI accounting)
    at a cycle boundary.  Fixpoint contract: restoring the image and
    stepping [n] cycles is bit-identical — every stat, every cycle — to
    stepping the original [n] cycles. *)

val load : Bin.reader -> t -> unit
(** Inverse of {!save}, into a freshly {!create}d engine over an unread
    window, the way {!Warm.load} fills a fresh bundle.  The engine's
    params and stream must be the ones the image was saved under (the
    snapshot file layer enforces this; the engine layer shape-checks
    stream length, wheel geometry, and internal references).  The
    window is {!Window.seek}ed to the image's committed count, so a live
    source skips ahead instead of replaying what already committed.  A
    checkpoint taken with a lockstep checker must be loaded into an
    engine with one, and vice versa.
    @raise Bin.Corrupt on any malformed or mismatched image. *)
