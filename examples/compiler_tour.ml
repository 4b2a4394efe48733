(* Compiler tour: how the same function looks as SSA IR, as naive STRAIGHT
   code (RAW), after redundancy elimination (RE+), and as RV32IM — the
   pipeline of the paper's Fig. 7, with Fig. 10's iota example.

     dune exec examples/compiler_tour.exe *)

let source = (Workloads.iota ~n:16 ()).Workloads.source

let banner title =
  Printf.printf "\n---------- %s ----------\n" title

let () =
  banner "MiniC source";
  print_string source;
  banner "SSA IR (the LLVM-IR stage of Fig. 7)";
  let prog = Straight_core.Compile.frontend source in
  List.iter
    (fun f ->
       if f.Ssa_ir.Ir.name = "iota" then
         print_string (Ssa_ir.Ir.func_to_string f))
    prog.Ssa_ir.Ir.funcs;
  (* one compile per target: the listing and the image come from the
     same code-generator run *)
  let compile target =
    Straight_core.Compile.compile
      (Straight_core.Experiment.codegen ~max_dist:1023 target)
      source
  in
  let raw = compile Straight_core.Experiment.Straight_raw in
  let re = compile Straight_core.Experiment.Straight_re in
  let rv = compile Straight_core.Experiment.Riscv in
  let listing (out : Straight_core.Compile.output) =
    print_string (Lazy.force out.Straight_core.Compile.listing)
  in
  banner "STRAIGHT, RAW (distance fixing with RMOV/NOP padding)";
  listing raw;
  banner "STRAIGHT, RE+ (producers sunk into frame slots, stack relays)";
  listing re;
  banner "RV32IM (the superscalar baseline)";
  listing rv;
  banner "dynamic instruction counts";
  let retired (out : Straight_core.Compile.output) =
    (Iss.Straight_iss.run out.Straight_core.Compile.image).Iss.Trace.retired
  in
  let riscv_retired =
    (Iss.Riscv_iss.run rv.Straight_core.Compile.image).Iss.Trace.retired
  in
  Printf.printf "RV32IM: %d, STRAIGHT RAW: %d, STRAIGHT RE+: %d\n"
    riscv_retired (retired raw) (retired re)
