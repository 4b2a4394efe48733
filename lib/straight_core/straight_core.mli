(** Public facade of the STRAIGHT reproduction library.

    An exact run is a [Snapshot.Sim] session driven to completion:
    {[
      let spec =
        Snapshot.Sim.spec
          ~model:Straight_core.Models.straight_4way
          ~target:Straight_core.Experiment.Straight_re
          (Workloads.resolve ~quick:false "coremark")
      in
      match Snapshot.Sim.drive (lazy (Snapshot.Sim.start spec)) with
      | Snapshot.Sim.Completed r ->
        Printf.printf "IPC %.2f\n" r.Straight_core.Experiment.ipc
      | Snapshot.Sim.Stopped _ -> ()
    ]}

    See [examples/] for runnable programs; the paper's tables come from
    the sweep ([make paper], [Sweep.Figures]).

    The layers below — front ends, passes, code generators, assembler,
    ISSs, cycle models — report their errors as {!Diag.Error}; callers
    match its code rather than an exception type, and the command-line
    tools exit with {!Diag.exit_code} of it. *)

(** The Table-I model configurations (re-exports {!Ooo_common.Params}). *)
module Models : sig
  include module type of Ooo_common.Params

  val all : t list
  (** [ss_2way; straight_2way; ss_4way; straight_4way]. *)
end

(** The one compile pipeline (Fig. 7): source -> SSA IR -> the STRAIGHT
    or RV32IM code generator -> the assembler.  Every source-to-image
    path in the libraries and binaries goes through {!Compile.backend}. *)
module Compile : sig
  type target =
    | Straight of Straight_cc.Codegen.config
        (** RAW or RE+ at the configured maximum distance *)
    | Riscv

  type output = {
    image : Assembler.Image.t;   (** linked at [_start] *)
    listing : string Lazy.t;
        (** the assembly text of the same items (Fig. 10-style
            inspection), printed on demand *)
    stats : Straight_cc.Codegen.stats option;  (** STRAIGHT only *)
  }

  val frontend :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool -> string ->
    Ssa_ir.Ir.program
  (** Parse + lower + optimize.  Each call returns a fresh program; the
      back ends mutate the IR, so a caller that compiles one program for
      several back ends gives each an {!Ssa_ir.Ir.clone} (as
      [Fuzz.Diff.build] does) instead of running the front end again.
      [opt] selects the middle-end level (default [O2]); [checked]
      (default [false]) runs {!Ssa_ir.Passes.checked_at}, validating the
      SSA after every pass so a violation blames the culprit pass by
      name. *)

  val backend : target -> Ssa_ir.Ir.program -> output
  (** Generate code for the program and assemble it.  Mutates the IR
      (critical-edge splitting, block layout): clone it first if it is
      needed afterwards. *)

  val compile :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool -> target -> string ->
    output
  (** [frontend] then [backend]. *)
end

(** Running a workload on a cycle-level model. *)
module Experiment : sig
  type target =
    | Straight_raw        (** STRAIGHT compiled by the basic algorithm *)
    | Straight_re         (** STRAIGHT with RE+ redundancy elimination *)
    | Riscv               (** the superscalar baseline *)

  val target_label : target -> string

  val codegen : ?max_dist:int -> target -> Compile.target
  (** The code generator a target's images come from (default max
      distance: the Table-I value, 31). *)

  val of_name : string -> target option
  (** The target names the tools accept: [straight] and [straight-re]
      (RE+), [straight-raw], [riscv] and [ss]. *)

  type result = {
    workload : string;
    model : string;
    target : target;
    cycles : int;
    committed : int;
    ipc : float;
    output : string;                 (** program console output *)
    stats : Ooo_common.Engine.stats;
    dist_histogram : int array;      (** STRAIGHT targets only *)
  }

  val run :
    ?max_dist:int -> ?check:bool ->
    model:Ooo_common.Params.t -> target:target ->
    Workloads.t -> result
  (** Compile the workload for the target ISA and simulate it.  [check]
      (default [true]) arms the lockstep golden-model checker. *)
end
