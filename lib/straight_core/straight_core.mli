(** Public facade of the STRAIGHT reproduction library.

    {[
      let exp =
        Straight_core.Experiment.run
          ~model:Straight_core.Models.straight_4way
          ~target:Straight_core.Experiment.Straight_re
          (Workloads.coremark ())
      in
      Printf.printf "IPC %.2f\n" exp.Straight_core.Experiment.ipc
    ]}

    See [examples/] for runnable programs and [bench/] for the per-figure
    reproduction harness. *)

(** The Table-I model configurations (re-exports {!Ooo_common.Params}). *)
module Models : sig
  include module type of Ooo_common.Params

  val all : t list
  (** [ss_2way; straight_2way; ss_4way; straight_4way]. *)
end

(** Structured diagnostics (re-exports {!Diag}, plus the mapping from
    the legacy per-library exceptions). *)
module Diagnostics : sig
  include module type of struct include Diag end

  val of_exn : exn -> Diag.t option
  (** Map any toolchain or simulator exception to its structured
      diagnostic: [Diag.Error] payloads pass through, the legacy
      [..._error of string] exceptions are classified by origin, and
      anything unrecognized yields [None]. *)
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
  (** Parse + lower + optimize.  Each call returns a fresh program (the
      back ends mutate the IR).  [opt] selects the middle-end level
      (default [O2]); [checked] (default [false]) runs
      {!Ssa_ir.Passes.checked_at}, validating the SSA after every pass so
      a violation blames the culprit pass by name. *)

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

  val relative_perf : baseline:result -> result -> float
  (** Inverse-cycles relative performance, the metric of Figs. 11-14. *)
end
