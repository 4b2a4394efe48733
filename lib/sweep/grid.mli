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
  workloads : string list;    (** {!Workloads.resolve} spellings *)
  samples : Sample.Spec.t option list;
      (** simulation-fidelity axis: [None] simulates the point exactly;
          [Some spec] runs it through the interval sampler, so long
          workloads compose with the rest of the grid *)
  quick : bool;               (** each name's quick program *)
}

(** One simulation: the spec names everything the run depends on
    (model, target, workload, budgets, checker, maximum distance, IR
    level); [machine] and [width] are the axis labels it came from. *)
type point = {
  spec : Snapshot.Sim.spec;
  machine : machine;
  width : int;
  sample : Sample.Spec.t option;
}

val at_least : string -> int -> int option -> unit
(** [at_least what floor n] is the one check of a numeric axis value,
    shared by {!model} (so sweep and the daemon) and straightsim's
    [-rob]/[-sched] overrides: a machine needs a lane and a ROB entry,
    and a 0-entry scheduler stays legal as the watchdog's hook.
    @raise Diag.Error code [Config_error], ["<what> must be at least
    <floor>, got <n>"], when [n] is [Some v] with [v < floor]. *)

val model :
  machine -> width:int -> rob:int option -> sched:int option ->
  predictor:Ooo_common.Params.predictor_kind -> ideal:bool ->
  Ooo_common.Params.t
(** The model a grid point on these axis values simulates: the width's
    Table-I (or scaled) model, checkpointed for [Ss_ckpt], then the ROB
    and scheduler overrides, the predictor and the recovery knob, each
    recorded in the model's name.  @raise Diag.Error code [Config_error]
    on a width or ROB below 1 or a scheduler below 0 (the deadlock hook). *)

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
    workloads innermost).  @raise Diag.Error as {!model} and
    {!Workloads.resolve} do. *)

val paper : quick:bool -> point list
(** The 46 points of the paper's evaluation that simulate cycles:
    Figs. 11-14 at both widths, Fig. 17 on one CoreMark iteration,
    Section VI-B at maximum distances 1023, 127 and 63 (31 is the
    Figs. 11/12 point), the front-end-depth and IR-level ablations and
    the ROB sweep of SS, checkpointed SS and STRAIGHT RE+ on CoreMark
    4-way.  [bin/sweep -grid paper] runs it; {!Figures.render} turns its
    records into FIGURES.md. *)

val spec_to_json : spec -> Json.t
(** The axes of a grid, as [sweep.json] records them. *)
