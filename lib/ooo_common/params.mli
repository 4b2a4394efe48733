(** Microarchitectural model parameters (the paper's Table I), plus the
    experiment knobs used by Figs. 13/14 and the ablations. *)

type predictor_kind = Gshare | Tage

type cache_params = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

(** How source operands get their physical locations — the axis the paper
    is about. *)
type rename_model =
  | Rmt of { phys_regs : int }
      (** RAM-based register mapping table + free list; misprediction
          recovery walks the ROB at the front-end width, serialized with
          the refetch (Section V-A / \[14\]). *)
  | Rmt_checkpoint of { phys_regs : int; checkpoints : int }
      (** CAM/checkpointed RMT (Section II-A): recovery restores a
          checkpoint instead of walking, but dispatch stalls when all
          checkpoints are held by in-flight control instructions. *)
  | Rp
      (** STRAIGHT: operand determination by register-pointer arithmetic
          (Fig. 3); recovery is a single ROB read (Fig. 4). *)

type t = {
  name : string;
  fetch_width : int;
  frontend_depth : int;       (** fetch-to-dispatch latency in cycles *)
  rob_entries : int;
  scheduler_entries : int;
  issue_width : int;
  commit_width : int;
  ldq_entries : int;
  stq_entries : int;
  n_alu : int;
  n_mul : int;
  n_div : int;
  n_bc : int;
  n_mem : int;
  rename : rename_model;
  predictor : predictor_kind;
  l1i : cache_params;
  l1d : cache_params;
  l2 : cache_params;
  l3 : cache_params option;
  memory_latency : int;
  ideal_recovery : bool;      (** Fig. 13: zero misprediction penalty *)
  latency_alu : int;
  latency_mul : int;
  latency_div : int;
  branch_resolve_latency : int;
      (** issue-to-redirect depth (issue, register read, execute) *)
  dispatch_issue_latency : int;
      (** dispatch-to-earliest-issue depth (schedule + issue stages) *)
  inject : Inject.plan option;
      (** seeded fault-injection plan; [None] = no faults *)
}

val l1_32k : cache_params
val l2_256k : cache_params
val l3_2m : cache_params

val base : t

(** The four evaluated models of Table I.  Sizes are equalized between
    each SS/STRAIGHT pair to isolate the architectural difference. *)

val ss_2way : t
val straight_2way : t
val ss_4way : t
val straight_4way : t

val straight_max_dist : int
(** STRAIGHT's maximum source distance in the evaluated models (31), so
    that max distance + ROB entries matches the SS register file
    (Section V-A). *)

val with_tage : t -> t
val with_ideal_recovery : t -> t

val with_faults : Inject.plan -> t -> t
(** Arm a seeded fault-injection plan (robustness campaigns); the run
    must absorb every fault through normal recovery or trip the lockstep
    checker / deadlock watchdog with a structured diagnostic. *)

val with_checkpoints : ?n:int -> t -> t
(** Checkpointed-RMT variant of a superscalar model (Section II-A);
    identity on STRAIGHT models. *)

val spadd_per_cycle : int
(** Maximum SPADDs dispatched per cycle (Section III-B: cascaded SPADD
    computations in a fetch group would stretch the clock, so the decoder
    restricts them by stalling; the paper argues — and the bench harness
    confirms — the effect is negligible). *)

(** {2 Canonical serialization and stable hashing}

    The design-space sweep subsystem ([lib/sweep]) content-addresses
    cached simulation results by configuration, and the bench harness
    memoizes runs by the same key, so [t] round-trips through the
    one JSON codec ([Json]) and hashes stably across processes. *)

val to_json : t -> Json.t
(** Total over every field, including the fault-injection plan. *)

val of_json : Json.t -> t
(** Exact inverse of {!to_json}.  @raise Json.Parse_error on a malformed
    or incomplete configuration. *)

val equal : t -> t -> bool
(** Structural configuration equality ([t] is first-order data). *)

val digest : t -> string
(** MD5 hex of the compact {!to_json} rendering: equal configurations
    (names included) digest equally in any process. *)

val predictor_name : predictor_kind -> string
val predictor_of_name : string -> predictor_kind option
