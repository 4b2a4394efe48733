(** Declarative experiment grids over [Ooo_common.Params.t].

    A {!spec} names value lists for each microarchitectural axis the
    paper's evaluation sweeps (Figs. 12–14: machine width, window
    sizes, rename model, predictor, recovery idealization) plus the
    workload axis; {!expand} takes the cartesian product and yields
    concrete simulation points.  Axes the paper pins (cache hierarchy,
    latencies) stay at their Table-I values. *)

(** Which pipeline/rename model a point exercises.  [Ss_ckpt n] is the
    checkpointed-RMT superscalar of Section II-A with [n] checkpoints;
    the STRAIGHT variants select the back-end code level. *)
type machine = Ss | Ss_ckpt of int | Straight_raw | Straight_re

val machine_label : machine -> string
val machine_of_label : string -> machine option
(** Accepts ["ss"], ["ss-ckptN"], ["straight-raw"], ["straight-re"]. *)

type spec = {
  machines : machine list;
  widths : int list;
      (** issue width; 2 and 4 select the Table-I model pairs, other
          values scale the 4-way pair's window resources linearly *)
  robs : int option list;
      (** [None] keeps the model default; [Some n] overrides the ROB
          and rescales the RMT physical register file to [32 + n]
          (the bench ROB-sweep convention) *)
  scheds : int option list;   (** scheduler entries; [None] = default *)
  predictors : Ooo_common.Params.predictor_kind list;
  ideal : bool list;          (** Fig. 13 zero-penalty recovery knob *)
  workloads : string list;    (** resolved by {!workload} *)
  samples : Sample.Spec.t option list;
      (** simulation-fidelity axis: [None] simulates the point exactly;
          [Some spec] runs it through the interval sampler, so long
          workloads compose with the rest of the grid *)
  quick : bool;               (** smaller iteration counts *)
}

type point = {
  params : Ooo_common.Params.t;
  target : Straight_core.Experiment.target;
  workload : Workloads.t;
  machine : machine;
  width : int;
  sample : Sample.Spec.t option;
}

val workload_names : string list
(** Every name {!workload} resolves. *)

val workload : quick:bool -> string -> Workloads.t
(** @raise Invalid_argument on an unknown workload name. *)

val default : quick:bool -> spec
(** The 32-point grid behind [bin/sweep] with no axis flags: both
    pipelines, both Table-I widths, both predictors, real and ideal
    recovery, both paper benchmarks. *)

val smoke : spec
(** Two cheap points (CI cache-hit smoke test). *)

val golden : spec
(** The pinned 12-point regression grid (3 workloads x 2 widths x 2
    machines) whose per-point cycles and CPI stacks live in
    [test/sweep_golden.json]. *)

val preset : quick:bool -> string -> spec option
(** The preset named [default], [smoke] or [golden] ([None] for any
    other name).  [quick] forces the smaller iteration counts on; a
    preset keeps its own flag otherwise. *)

val expand : spec -> point list
(** Cartesian product in deterministic order (machines outermost,
    workloads innermost). *)
