(* Public facade of the STRAIGHT reproduction library; the interface
   shows an exact run.  See examples/ for runnable programs; the paper's
   tables come from the sweep (`make paper`).  The layers below report
   their errors as [Diag.Error] (see the interface). *)

module Models = struct
  include Ooo_common.Params

  let all = [ ss_2way; straight_2way; ss_4way; straight_4way ]
end

(* The one compile pipeline (the paper's Fig. 7): source -> SSA IR ->
   a code generator -> the assembler.  Every library and binary that
   turns source or IR into an image goes through [backend].  Two callers
   assemble items themselves: the translation validator's mutation
   harness, which assembles items it has mutated, and the benchmark's
   per-layer wrappers (stackbench/layer.ml), which time each layer on
   its own. *)
module Compile = struct
  type target =
    | Straight of Straight_cc.Codegen.config   (* RAW or RE+, max distance *)
    | Riscv

  type output = {
    image : Assembler.Image.t;
    listing : string Lazy.t;
    stats : Straight_cc.Codegen.stats option;
  }

  (* [frontend ?opt ?checked src] parses + lowers + optimizes source
     into a fresh SSA program (back ends mutate the IR: one program
     compiled for several gives each an [Ssa_ir.Ir.clone]).  The
     front-end is sniffed from the content — WAT modules start with '('
     (lib/wasm), anything else is MiniC — so WASM workloads flow through
     every consumer of this entry point.  [opt] selects the middle-end
     level (default O2, matching the paper's clang -O2); [checked]
     validates the SSA after every pass, blaming the culprit pass. *)
  let frontend ?(opt = Ssa_ir.Passes.O2) ?(checked = false) (src : string) :
    Ssa_ir.Ir.program =
    let p = Wasm.Front.compile_any src in
    let run =
      if checked then Ssa_ir.Passes.checked_at else Ssa_ir.Passes.optimize_at
    in
    List.iter (run opt) p.Ssa_ir.Ir.funcs;
    p

  (* [backend target p] generates code for [p] (mutating it) and links
     the items at [_start]; the listing is printed from the same items
     on demand. *)
  let backend (target : target) (p : Ssa_ir.Ir.program) : output =
    match target with
    | Straight config ->
      let items = Straight_cc.Codegen.compile ~config p in
      { image = Assembler.Asm.Straight.assemble ~entry:"_start" items;
        listing = lazy (Assembler.Asm.Straight.program_to_string items);
        stats = Some (Straight_cc.Codegen.stats_of_items items) }
    | Riscv ->
      let items = Riscv_cc.Codegen.compile p in
      { image = Assembler.Asm.Riscv.assemble ~entry:"_start" items;
        listing = lazy (Assembler.Asm.Riscv.program_to_string items);
        stats = None }

  let compile ?opt ?checked (target : target) (src : string) : output =
    backend target (frontend ?opt ?checked src)
end

module Experiment = struct
  type target =
    | Straight_raw
    | Straight_re
    | Riscv

  let target_label = function
    | Straight_raw -> "STRAIGHT(RAW)"
    | Straight_re -> "STRAIGHT(RE+)"
    | Riscv -> "SS"

  (* The one map from an experiment target to its code generator. *)
  let codegen ?(max_dist = Ooo_common.Params.straight_max_dist) = function
    | Straight_raw ->
      Compile.Straight { Straight_cc.Codegen.max_dist; level = Raw }
    | Straight_re ->
      Compile.Straight { Straight_cc.Codegen.max_dist; level = Re_plus }
    | Riscv -> Compile.Riscv

  (* The one table of target names the command-line tools accept. *)
  let of_name = function
    | "straight" | "straight-re" -> Some Straight_re
    | "straight-raw" -> Some Straight_raw
    | "riscv" | "ss" -> Some Riscv
    | _ -> None

  type result = {
    workload : string;
    model : string;
    target : target;
    cycles : int;
    committed : int;
    ipc : float;
    output : string;
    stats : Ooo_common.Engine.stats;
    dist_histogram : int array;        (* STRAIGHT targets only *)
  }

  (* [run ~model ~target ?max_dist workload] compiles the workload for the
     target ISA and simulates it on the cycle-level model. *)
  let run ?(max_dist = Ooo_common.Params.straight_max_dist) ?(check = true)
      ~(model : Ooo_common.Params.t) ~(target : target)
      (w : Workloads.t) : result =
    let image =
      (Compile.compile (codegen ~max_dist target) w.Workloads.source)
        .Compile.image
    in
    let r = Ooo_common.Pipeline.run ~check ~max_dist model image in
    let stats = r.Ooo_common.Pipeline.stats in
    { workload = w.Workloads.name;
      model = model.Ooo_common.Params.name;
      target;
      cycles = stats.Ooo_common.Engine.cycles;
      committed = stats.Ooo_common.Engine.committed;
      ipc = stats.Ooo_common.Engine.ipc;
      output = r.Ooo_common.Pipeline.output;
      stats;
      dist_histogram = r.Ooo_common.Pipeline.dist_histogram }
end
