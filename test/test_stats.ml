(* Stats-layer tests: the engine's hot-path data structures (ring-buffer
   window, event-driven wakeup) must not change simulated timing by a
   single cycle, and the CPI stack must account for every cycle exactly
   once.  The JSON codec is tested in test_json.ml. *)

module Params = Ooo_common.Params
module Engine = Ooo_common.Engine
module Stats = Ooo_common.Stats
module Exp = Straight_core.Experiment

(* ---------- golden cycle counts ---------- *)

(* Recorded from the pre-refactor engine (the list/Hashtbl seed): the
   ring-buffer/wakeup engine must reproduce them bit for bit.  Keyed by
   (model, target, workload) -> (cycles, committed). *)

let w_dhrystone () = Workloads.dhrystone ~iterations:10 ()
let w_coremark () = Workloads.coremark ~iterations:1 ()
let w_fib () = Workloads.fib ()
let w_quicksort () = Workloads.quicksort ()
let w_pointer_chase () = Workloads.pointer_chase ~nodes:256 ~hops:200 ()

let base_goldens =
  (* model, target, workload, cycles, committed *)
  [ (Params.ss_2way, Exp.Riscv, w_dhrystone, 9357, 6333);
    (Params.ss_2way, Exp.Riscv, w_coremark, 64264, 67764);
    (Params.ss_2way, Exp.Riscv, w_fib, 107806, 154688);
    (Params.ss_2way, Exp.Riscv, w_quicksort, 12269, 9906);
    (Params.ss_2way, Exp.Riscv, w_pointer_chase, 3610, 5040);
    (Params.ss_4way, Exp.Riscv, w_dhrystone, 9277, 6333);
    (Params.ss_4way, Exp.Riscv, w_coremark, 54081, 67764);
    (Params.ss_4way, Exp.Riscv, w_fib, 66572, 154688);
    (Params.ss_4way, Exp.Riscv, w_quicksort, 10053, 9906);
    (Params.ss_4way, Exp.Riscv, w_pointer_chase, 2911, 5040);
    (Params.straight_2way, Exp.Straight_re, w_dhrystone, 9297, 7404);
    (* coremark re-recorded after the refresh-batch aliasing fix in
       straight_cc: values pinned to one producer position now share a
       single RMOV slot, shifting the batch layout by a few cycles *)
    (Params.straight_2way, Exp.Straight_re, w_coremark, 62616, 80483);
    (Params.straight_2way, Exp.Straight_re, w_fib, 88404, 121239);
    (Params.straight_2way, Exp.Straight_re, w_quicksort, 11645, 12348);
    (Params.straight_2way, Exp.Straight_re, w_pointer_chase, 3591, 4837);
    (Params.straight_4way, Exp.Straight_re, w_dhrystone, 8413, 7404);
    (Params.straight_4way, Exp.Straight_re, w_coremark, 47464, 80483);
    (Params.straight_4way, Exp.Straight_re, w_fib, 59277, 121239);
    (Params.straight_4way, Exp.Straight_re, w_quicksort, 8710, 12348);
    (Params.straight_4way, Exp.Straight_re, w_pointer_chase, 2901, 4837) ]

(* variant configurations exercise TAGE, checkpoints, ideal recovery,
   a wider distance window, and the RAW code level *)
let variant_goldens =
  [ (Params.with_tage Params.ss_4way, Exp.Riscv, None, w_coremark, 54358, 67764);
    (Params.with_tage Params.straight_4way, Exp.Straight_re, None, w_coremark,
     47984, 80483);
    (Params.with_checkpoints ~n:8 Params.ss_4way, Exp.Riscv, None, w_coremark,
     47168, 67764);
    (Params.with_ideal_recovery Params.ss_2way, Exp.Riscv, None, w_coremark,
     38827, 67764);
    (Params.straight_4way, Exp.Straight_re, Some 63, w_coremark, 46864, 80208);
    (* re-recorded after the conditional-branch liveness fix in
       straight_cc: the condition value now (correctly) joins the RMOV
       refresh batch at block exits, so RAW code carries a few more
       instructions *)
    (Params.straight_4way, Exp.Straight_raw, None, w_coremark, 51879, 97258) ]

let check_result label (r : Exp.result) cycles committed =
  Alcotest.(check int) (label ^ ": cycles") cycles r.Exp.cycles;
  Alcotest.(check int) (label ^ ": committed") committed r.Exp.committed;
  (* every cycle lands in exactly one CPI bucket *)
  Alcotest.(check int)
    (label ^ ": cpi stack sums to cycles")
    r.Exp.cycles
    (Stats.cpi_total r.Exp.stats.Engine.cpi_stack)

let test_golden_base () =
  List.iter
    (fun (model, target, mk_w, cycles, committed) ->
       let w = mk_w () in
       let label =
         Printf.sprintf "%s/%s/%s" model.Params.name (Exp.target_label target)
           w.Workloads.name
       in
       check_result label (Exp.run ~model ~target w) cycles committed)
    base_goldens

let test_golden_variants () =
  List.iter
    (fun (model, target, max_dist, mk_w, cycles, committed) ->
       let w = mk_w () in
       let label =
         Printf.sprintf "%s/%s/%s%s" model.Params.name
           (Exp.target_label target) w.Workloads.name
           (match max_dist with
            | Some d -> Printf.sprintf "/maxdist%d" d
            | None -> "")
       in
       check_result label (Exp.run ?max_dist ~model ~target w) cycles committed)
    variant_goldens

(* ---------- CPI-stack shape ---------- *)

let test_cpi_shape () =
  let r =
    Exp.run ~model:Params.straight_4way ~target:Exp.Straight_re
      (w_quicksort ())
  in
  let c = r.Exp.stats.Engine.cpi_stack in
  Alcotest.(check bool) "base cycles present" true (c.Stats.base > 0);
  Alcotest.(check bool) "frontend cycles present" true (c.Stats.frontend > 0);
  (* quicksort mispredicts heavily: squash cycles must be attributed *)
  Alcotest.(check bool) "squash cycles present" true (c.Stats.branch_squash > 0);
  Alcotest.(check bool) "no negative bucket" true
    (c.Stats.base >= 0 && c.Stats.frontend >= 0 && c.Stats.branch_squash >= 0
     && c.Stats.memory >= 0 && c.Stats.structural >= 0);
  (* the association list preserves the documented order *)
  Alcotest.(check (list string))
    "assoc order"
    [ "base"; "frontend"; "branch_squash"; "memory"; "structural" ]
    (List.map fst (Stats.cpi_to_assoc c))

let suite =
  [ Alcotest.test_case "golden cycle counts (Table-I models)" `Slow
      test_golden_base;
    Alcotest.test_case "golden cycle counts (variants)" `Slow
      test_golden_variants;
    Alcotest.test_case "cpi stack shape" `Quick test_cpi_shape ]

let () = Alcotest.run "stats" [ ("stats", suite) ]
