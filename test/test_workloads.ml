(* Workload-level integration tests: the Dhrystone-like and CoreMark-like
   benchmarks must compile and produce identical output on the IR
   interpreter and on all compiled targets, and key paper shapes must hold
   on the cycle models. *)

module Ir = Ssa_ir.Ir
module Params = Ooo_common.Params
module Exp = Straight_core.Experiment
module Engine = Ooo_common.Engine

let interp src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  fst (Ssa_ir.Interp.run p)

let straight_out ~level ~max_dist src =
  let out =
    Straight_core.Compile.compile
      (Straight_core.Compile.Straight { Straight_cc.Codegen.max_dist; level })
      src
  in
  (Iss.Straight_iss.run out.Straight_core.Compile.image).Iss.Trace.output

let riscv_out src =
  let out = Straight_core.Compile.compile Straight_core.Compile.Riscv src in
  (Iss.Riscv_iss.run out.Straight_core.Compile.image).Iss.Trace.output

let check_workload (w : Workloads.t) =
  let reference = interp w.Workloads.source in
  Alcotest.(check bool)
    (w.Workloads.name ^ " produces output") true
    (String.length reference > 0);
  List.iter
    (fun (label, out) ->
       Alcotest.(check string) (w.Workloads.name ^ " " ^ label) reference out)
    [ ("straight re+ 31",
       straight_out ~level:Straight_cc.Codegen.Re_plus ~max_dist:31
         w.Workloads.source);
      ("straight raw 31",
       straight_out ~level:Straight_cc.Codegen.Raw ~max_dist:31
         w.Workloads.source);
      ("straight re+ 1023",
       straight_out ~level:Straight_cc.Codegen.Re_plus ~max_dist:1023
         w.Workloads.source);
      ("riscv", riscv_out w.Workloads.source) ]

let test_dhrystone () = check_workload (Workloads.dhrystone ~iterations:5 ())
let test_coremark () = check_workload (Workloads.coremark ~iterations:1 ())
let test_micro_kernels () =
  check_workload (Workloads.fib ~n:12 ());
  check_workload (Workloads.iota ~n:20 ());
  check_workload (Workloads.sort ~n:16 ());
  check_workload (Workloads.quicksort ~n:40 ());
  check_workload (Workloads.pointer_chase ~nodes:64 ~hops:100 ())

(* determinstic results for the same iteration count *)
let test_workload_determinism () =
  let a = interp (Workloads.coremark ~iterations:1 ()).Workloads.source in
  let b = interp (Workloads.coremark ~iterations:1 ()).Workloads.source in
  Alcotest.(check string) "coremark deterministic" a b

(* ---------- paper-shape assertions on the cycle models ---------- *)

let coremark2 = Workloads.coremark ~iterations:2 ()

let test_shape_raw_worse_than_re () =
  let raw =
    Exp.run ~model:Params.straight_4way ~target:Exp.Straight_raw coremark2
  in
  let re =
    Exp.run ~model:Params.straight_4way ~target:Exp.Straight_re coremark2
  in
  Alcotest.(check bool) "RE+ retires fewer instructions" true
    (re.Exp.committed < raw.Exp.committed);
  Alcotest.(check bool) "RE+ is faster" true (re.Exp.cycles <= raw.Exp.cycles)

let test_shape_straight_wins_4way_coremark () =
  (* the headline: STRAIGHT RE+ beats same-size SS on CoreMark at 4-way *)
  let ss = Exp.run ~model:Params.ss_4way ~target:Exp.Riscv coremark2 in
  let st =
    Exp.run ~model:Params.straight_4way ~target:Exp.Straight_re coremark2
  in
  Alcotest.(check bool)
    (Printf.sprintf "STRAIGHT(RE+) %d < SS %d cycles" st.Exp.cycles ss.Exp.cycles)
    true (st.Exp.cycles < ss.Exp.cycles)

let test_shape_no_penalty_gap () =
  (* Fig. 13: removing the misprediction penalty must speed up SS, and
     STRAIGHT must sit between SS and SS-no-penalty *)
  let ss = Exp.run ~model:Params.ss_4way ~target:Exp.Riscv coremark2 in
  let ideal =
    Exp.run ~model:(Params.with_ideal_recovery Params.ss_4way) ~target:Exp.Riscv
      coremark2
  in
  let st =
    Exp.run ~model:Params.straight_4way ~target:Exp.Straight_re coremark2
  in
  Alcotest.(check bool) "no-penalty is fastest" true
    (ideal.Exp.cycles < ss.Exp.cycles && ideal.Exp.cycles < st.Exp.cycles);
  Alcotest.(check bool) "STRAIGHT between SS and ideal" true
    (st.Exp.cycles < ss.Exp.cycles)

let test_shape_distance_distribution () =
  (* Fig. 16: ~30-50% of operands at distance 1, >90% within 32 *)
  let image =
    (Straight_core.Compile.compile
       (Straight_core.Compile.Straight
          { Straight_cc.Codegen.max_dist = 1023;
            level = Straight_cc.Codegen.Re_plus })
       coremark2.Workloads.source)
      .Straight_core.Compile.image
  in
  let r =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.collect_trace = false; collect_dist = true;
                max_insns = 50_000_000 }
      image
  in
  let hist = r.Iss.Trace.dist_histogram in
  let total = float_of_int (Array.fold_left ( + ) 0 hist) in
  let frac_1 = float_of_int hist.(1) /. total in
  let within_32 = ref 0 in
  for d = 0 to 32 do within_32 := !within_32 + hist.(d) done;
  Alcotest.(check bool)
    (Printf.sprintf "distance-1 fraction %.2f in [0.2, 0.6]" frac_1)
    true (frac_1 > 0.2 && frac_1 < 0.6);
  Alcotest.(check bool) "90%+ within distance 32" true
    (float_of_int !within_32 /. total > 0.9)

let test_shape_power () =
  (* Fig. 17: rename power nearly removed; regfile/other rise modestly *)
  let w = Workloads.sort ~n:24 () in
  let ss = Exp.run ~model:Params.ss_2way ~target:Exp.Riscv w in
  let st = Exp.run ~model:Params.straight_2way ~target:Exp.Straight_re w in
  let ss_rep = Power.analyze ~cycles:ss.Exp.cycles ss.Exp.stats.Engine.activity in
  let st_rep = Power.analyze ~cycles:st.Exp.cycles st.Exp.stats.Engine.activity in
  Alcotest.(check bool) "rename power nearly removed" true
    (st_rep.Power.rename < 0.2 *. ss_rep.Power.rename);
  (* the register-file rise tracks the RMOV share of the kernel: the
     paper reports < 18 % on its RTL test code; across our kernels it
     ranges ~5-50 % (see EXPERIMENTS.md) *)
  Alcotest.(check bool) "regfile rises less than 60%" true
    (st_rep.Power.regfile < 1.6 *. ss_rep.Power.regfile);
  Alcotest.(check bool) "other rises less than 25%" true
    (st_rep.Power.other < 1.25 *. ss_rep.Power.other);
  (* frequency scaling is monotone and superlinear *)
  Alcotest.(check bool) "scaling superlinear" true
    (Power.scale_power 1.0 4.0 > 4.0)

let test_maxdist_sweep_small_cost () =
  (* Section VI-B: max distance 31 costs only a few percent over 1023 *)
  let r31 =
    Exp.run ~max_dist:31 ~model:Params.straight_4way ~target:Exp.Straight_re
      coremark2
  in
  let r1023 =
    Exp.run ~max_dist:1023 ~model:Params.straight_4way ~target:Exp.Straight_re
      coremark2
  in
  let cost =
    float_of_int r31.Exp.cycles /. float_of_int r1023.Exp.cycles -. 1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "maxdist-31 cost %.1f%% < 8%%" (100. *. cost))
    true (cost < 0.08)

let suite =
  [ ("dhrystone all targets", `Slow, test_dhrystone);
    ("coremark all targets", `Slow, test_coremark);
    ("micro kernels all targets", `Quick, test_micro_kernels);
    ("workload determinism", `Quick, test_workload_determinism);
    ("shape: RAW worse than RE+", `Slow, test_shape_raw_worse_than_re);
    ("shape: STRAIGHT wins 4-way coremark", `Slow,
     test_shape_straight_wins_4way_coremark);
    ("shape: no-penalty gap", `Slow, test_shape_no_penalty_gap);
    ("shape: distance distribution", `Slow, test_shape_distance_distribution);
    ("shape: power", `Quick, test_shape_power);
    ("shape: maxdist sweep", `Slow, test_maxdist_sweep_small_cost) ]

let () = Alcotest.run "workloads" [ ("workloads", suite) ]
