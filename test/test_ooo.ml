(* Tests for the microarchitecture substrate: caches, branch predictors,
   RAS, memory-dependence predictor, and end-to-end engine invariants. *)

module Params = Ooo_common.Params
module Cache = Ooo_common.Cache
module BP = Ooo_common.Branch_pred
module Engine = Ooo_common.Engine

(* ---------- caches ---------- *)

let test_cache_basics () =
  let c = Cache.create { Params.size_bytes = 1024; ways = 2; line_bytes = 64;
                         hit_latency = 4 } in
  (* 1024/64 = 16 lines, 2 ways -> 8 sets *)
  Alcotest.(check bool) "cold miss" false (Cache.touch c 0x1000);
  Alcotest.(check bool) "hit after fill" true (Cache.touch c 0x1000);
  Alcotest.(check bool) "same line hit" true (Cache.touch c 0x103C);
  Alcotest.(check bool) "different line miss" false (Cache.touch c 0x2000);
  Alcotest.(check int) "miss count" 2 c.Cache.misses;
  Alcotest.(check int) "access count" 4 c.Cache.accesses

let test_cache_lru () =
  let c = Cache.create { Params.size_bytes = 1024; ways = 2; line_bytes = 64;
                         hit_latency = 4 } in
  (* three lines mapping to the same set (8 sets, 64B lines: stride 512) *)
  let a = 0x0000 and b = 0x0200 and d = 0x0400 in
  ignore (Cache.touch c a);
  ignore (Cache.touch c b);
  ignore (Cache.touch c a); (* a most recent; b is LRU *)
  ignore (Cache.touch c d); (* evicts b *)
  Alcotest.(check bool) "a survives" true (Cache.touch c a);
  Alcotest.(check bool) "b evicted" false (Cache.touch c b)

let test_cache_fill_is_silent () =
  let c = Cache.create Params.l1_32k in
  Cache.fill c 0x4000;
  Alcotest.(check int) "fill does not count accesses" 0 c.Cache.accesses;
  Alcotest.(check bool) "fill installs the line" true (Cache.touch c 0x4000)

let test_hierarchy_latencies () =
  let h = Cache.create_hierarchy Params.ss_4way in
  let lat1 = Cache.data_access h 0x10000 in
  (* first touch: L1 miss, L2 miss, L3 miss, memory *)
  Alcotest.(check int) "cold access latency" (4 + 12 + 42 + 200) lat1;
  let lat2 = Cache.data_access h 0x10000 in
  Alcotest.(check int) "L1 hit latency" 4 lat2;
  (* the stream prefetcher should have installed the next lines *)
  let lat3 = Cache.data_access h 0x10040 in
  Alcotest.(check int) "prefetched next line" 4 lat3

let test_hierarchy_no_l3 () =
  let h = Cache.create_hierarchy Params.ss_2way in
  let lat = Cache.data_access h 0x20000 in
  Alcotest.(check int) "cold latency without L3" (4 + 12 + 200) lat

(* ---------- branch predictors ---------- *)

let test_gshare_learns_loop () =
  let p = BP.gshare () in
  let pc = 0x1000 in
  (* taken 7 times, not-taken once, repeatedly (a loop with 8 iterations) *)
  for _ = 1 to 50 do
    for i = 1 to 8 do
      ignore (p.BP.predict pc);
      p.BP.update pc (i < 8)
    done
  done;
  (* after training, the inner predictions should be mostly right *)
  let correct = ref 0 in
  for i = 1 to 8 do
    if p.BP.predict pc = (i < 8) then incr correct;
    p.BP.update pc (i < 8)
  done;
  Alcotest.(check bool) "gshare learned the loop" true (!correct >= 6)

let test_gshare_biased_branch () =
  let p = BP.gshare () in
  for _ = 1 to 20 do
    p.BP.update 0x2000 true
  done;
  Alcotest.(check bool) "always-taken learned" true (p.BP.predict 0x2000)

let test_tage_learns_pattern () =
  let p = BP.tage () in
  (* a pattern gshare-with-long-history handles: period-3 sequence *)
  let pattern = [| true; true; false |] in
  let i = ref 0 in
  for _ = 1 to 300 do
    ignore (p.BP.predict 0x3000);
    p.BP.update 0x3000 pattern.(!i mod 3);
    incr i
  done;
  let correct = ref 0 in
  for _ = 1 to 30 do
    if p.BP.predict 0x3000 = pattern.(!i mod 3) then incr correct;
    p.BP.update 0x3000 pattern.(!i mod 3);
    incr i
  done;
  Alcotest.(check bool)
    (Printf.sprintf "tage learned period-3 (%d/30)" !correct)
    true (!correct >= 25)

let test_ras () =
  let r = BP.Ras.create () in
  BP.Ras.push r 0x100;
  BP.Ras.push r 0x200;
  Alcotest.(check int) "lifo pop" 0x200 (BP.Ras.pop r);
  let saved = BP.Ras.save r in
  BP.Ras.push r 0x300;
  ignore (BP.Ras.pop r);
  ignore (BP.Ras.pop r);
  BP.Ras.restore r saved;
  Alcotest.(check int) "restored top" 0x100 (BP.Ras.pop r);
  Alcotest.(check int) "empty pop" BP.Ras.empty (BP.Ras.pop r)

let test_memdep () =
  let m = Ooo_common.Memdep.create () in
  Alcotest.(check bool) "initially no conflict" false
    (Ooo_common.Memdep.predict_conflict m 0x4000);
  Ooo_common.Memdep.train_violation m 0x4000;
  Alcotest.(check bool) "conflict after violation" true
    (Ooo_common.Memdep.predict_conflict m 0x4000);
  Alcotest.(check int) "violation count" 1 m.Ooo_common.Memdep.violations

(* ---------- engine invariants ---------- *)

let compile_straight src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  let config =
    { Straight_cc.Codegen.max_dist = 31; level = Straight_cc.Codegen.Re_plus }
  in
  (Straight_core.Compile.backend (Straight_core.Compile.Straight config) p)
    .Straight_core.Compile.image

let compile_riscv src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  (Straight_core.Compile.backend Straight_core.Compile.Riscv p)
    .Straight_core.Compile.image

let sim_source = {|
int data[32];
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int main() {
  for (int i = 0; i < 32; i++) data[i] = i * 3 - 7;
  int total = 0;
  for (int round = 0; round < 20; round++) {
    total += sum(data, 32);
    if (total > 100000) total = 0;
    data[round & 31] = total & 255;
  }
  putint(total);
  return 0;
}
|}

let test_engine_straight_runs () =
  let image = compile_straight sim_source in
  let r = Ooo_common.Pipeline.run Params.straight_4way image in
  let s = r.Ooo_common.Pipeline.stats in
  Alcotest.(check bool) "ipc positive" true (s.Engine.ipc > 0.0);
  Alcotest.(check bool) "ipc below issue width" true
    (s.Engine.ipc <= float_of_int Params.straight_4way.Params.issue_width);
  Alcotest.(check bool) "committed everything" true (s.Engine.committed > 0);
  (* functional output must be produced by the ISS leg unchanged *)
  Alcotest.(check bool) "output nonempty" true
    (String.length r.Ooo_common.Pipeline.output > 0)

let test_engine_riscv_runs () =
  let image = compile_riscv sim_source in
  let r = Ooo_common.Pipeline.run Params.ss_4way image in
  let s = r.Ooo_common.Pipeline.stats in
  Alcotest.(check bool) "ipc positive" true (s.Engine.ipc > 0.0);
  Alcotest.(check bool) "ipc below issue width" true
    (s.Engine.ipc <= float_of_int Params.ss_4way.Params.issue_width)

let test_engine_commit_count_matches_trace () =
  (* every correct-path instruction commits exactly once *)
  let image = compile_straight sim_source in
  let iss =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.collect_trace = true; collect_dist = false;
                max_insns = 10_000_000 }
      image
  in
  let r = Ooo_common.Pipeline.run Params.straight_2way image in
  Alcotest.(check int) "committed = trace length" iss.Iss.Trace.retired
    r.Ooo_common.Pipeline.stats.Engine.committed

let test_engine_determinism () =
  let image = compile_straight sim_source in
  let r1 = Ooo_common.Pipeline.run Params.straight_4way image in
  let r2 = Ooo_common.Pipeline.run Params.straight_4way image in
  Alcotest.(check int) "same cycles" r1.Ooo_common.Pipeline.stats.Engine.cycles
    r2.Ooo_common.Pipeline.stats.Engine.cycles

let test_ideal_recovery_not_slower () =
  let image = compile_riscv sim_source in
  let normal = Ooo_common.Pipeline.run Params.ss_2way image in
  let ideal =
    Ooo_common.Pipeline.run (Params.with_ideal_recovery Params.ss_2way) image
  in
  Alcotest.(check bool) "ideal recovery is not slower" true
    (ideal.Ooo_common.Pipeline.stats.Engine.cycles
     <= normal.Ooo_common.Pipeline.stats.Engine.cycles)

let test_deeper_frontend_not_faster () =
  let image = compile_straight sim_source in
  let shallow = Ooo_common.Pipeline.run Params.straight_4way image in
  let deep =
    Ooo_common.Pipeline.run
      { Params.straight_4way with Params.frontend_depth = 12; name = "deep" }
      image
  in
  Alcotest.(check bool) "12-deep front end is not faster" true
    (deep.Ooo_common.Pipeline.stats.Engine.cycles
     >= shallow.Ooo_common.Pipeline.stats.Engine.cycles)

let test_wider_machine_not_slower () =
  let image = compile_straight sim_source in
  let narrow = Ooo_common.Pipeline.run Params.straight_2way image in
  let wide = Ooo_common.Pipeline.run Params.straight_4way image in
  Alcotest.(check bool) "4-way is not slower than 2-way" true
    (wide.Ooo_common.Pipeline.stats.Engine.cycles
     <= narrow.Ooo_common.Pipeline.stats.Engine.cycles)

let test_mix_totals () =
  let image = compile_straight sim_source in
  let r = Ooo_common.Pipeline.run Params.straight_2way image in
  let s = r.Ooo_common.Pipeline.stats in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Engine.mix in
  Alcotest.(check int) "mix sums to committed" s.Engine.committed total

let test_slow_memory_slower () =
  let image = compile_straight sim_source in
  let fast = Ooo_common.Pipeline.run Params.straight_2way image in
  let slow =
    Ooo_common.Pipeline.run
      { Params.straight_2way with Params.memory_latency = 800; name = "slowmem" }
      image
  in
  Alcotest.(check bool) "4x memory latency is not faster" true
    (slow.Ooo_common.Pipeline.stats.Engine.cycles
     >= fast.Ooo_common.Pipeline.stats.Engine.cycles)

(* the checkpointed-RMT variant (Section II-A) removes the walk but adds
   checkpoint-occupancy stalls: it must land between SS and ideal *)
let test_checkpointed_rmt_between () =
  let image = compile_riscv sim_source in
  let ss = Ooo_common.Pipeline.run Params.ss_4way image in
  let ck =
    Ooo_common.Pipeline.run (Params.with_checkpoints ~n:8 Params.ss_4way) image
  in
  let ideal =
    Ooo_common.Pipeline.run (Params.with_ideal_recovery Params.ss_4way) image
  in
  Alcotest.(check bool) "checkpoints not slower than walk" true
    (ck.Ooo_common.Pipeline.stats.Engine.cycles
     <= ss.Ooo_common.Pipeline.stats.Engine.cycles);
  Alcotest.(check bool) "checkpoints not faster than ideal" true
    (ck.Ooo_common.Pipeline.stats.Engine.cycles
     >= ideal.Ooo_common.Pipeline.stats.Engine.cycles);
  Alcotest.(check int) "no walk with checkpoints" 0
    ck.Ooo_common.Pipeline.stats.Engine.walk_stall_cycles

(* starved checkpoints must actually stall *)
let test_checkpoint_starvation () =
  let image = compile_riscv sim_source in
  let starved =
    Ooo_common.Pipeline.run (Params.with_checkpoints ~n:1 Params.ss_4way) image
  in
  Alcotest.(check bool) "1 checkpoint causes stalls" true
    (starved.Ooo_common.Pipeline.stats.Engine.checkpoint_stall_slots > 0)

(* Section III-B: the SPADD dispatch restriction is negligible *)
let test_spadd_limit_negligible () =
  let image = compile_straight sim_source in
  let r = Ooo_common.Pipeline.run Params.straight_4way image in
  let s = r.Ooo_common.Pipeline.stats in
  Alcotest.(check bool)
    (Printf.sprintf "spadd stalls %d < 2%% of cycles %d"
       s.Engine.spadd_stall_slots s.Engine.cycles)
    true
    (float_of_int s.Engine.spadd_stall_slots
     < 0.02 *. float_of_int s.Engine.cycles)

(* the lockstep golden-model checker is on by default in Pipeline.run;
   every built-in workload must retire through it with zero violations
   on both a STRAIGHT and a superscalar model *)
let test_checker_on_builtin_workloads () =
  let workloads =
    [ Workloads.dhrystone ~iterations:5 ();
      Workloads.coremark ~iterations:1 ();
      Workloads.fib ();
      Workloads.iota ();
      Workloads.sort ();
      Workloads.quicksort ();
      Workloads.pointer_chase ~nodes:256 ~hops:200 () ]
  in
  List.iter
    (fun w ->
       List.iter
         (fun (model, target) ->
            let r =
              Straight_core.Experiment.run ~model ~target w
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s: checker ran" w.Workloads.name
                 model.Params.name)
              true
              (r.Straight_core.Experiment.stats.Engine.commits_checked
               >= r.Straight_core.Experiment.stats.Engine.committed))
         [ (Params.straight_2way, Straight_core.Experiment.Straight_re);
           (Params.ss_2way, Straight_core.Experiment.Riscv) ])
    workloads

(* pointer chasing defeats the next-line prefetcher: many L1D misses *)
let test_pointer_chase_misses () =
  let w = Workloads.pointer_chase ~nodes:16384 ~hops:3000 () in
  let p = Minic.Lower.compile w.Workloads.source in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  let image =
    (Straight_core.Compile.backend Straight_core.Compile.Riscv p)
      .Straight_core.Compile.image
  in
  let r = Ooo_common.Pipeline.run Params.ss_2way image in
  Alcotest.(check bool) "pointer chase misses in L1D" true
    (r.Ooo_common.Pipeline.stats.Engine.l1d_misses > 500)

let suite =
  [ ("cache basics", `Quick, test_cache_basics);
    ("cache LRU", `Quick, test_cache_lru);
    ("cache silent fill", `Quick, test_cache_fill_is_silent);
    ("hierarchy latencies", `Quick, test_hierarchy_latencies);
    ("hierarchy without L3", `Quick, test_hierarchy_no_l3);
    ("gshare learns loop", `Quick, test_gshare_learns_loop);
    ("gshare biased branch", `Quick, test_gshare_biased_branch);
    ("tage learns pattern", `Quick, test_tage_learns_pattern);
    ("return address stack", `Quick, test_ras);
    ("memory dependence predictor", `Quick, test_memdep);
    ("engine: straight runs", `Quick, test_engine_straight_runs);
    ("engine: riscv runs", `Quick, test_engine_riscv_runs);
    ("engine: commit count", `Quick, test_engine_commit_count_matches_trace);
    ("engine: determinism", `Quick, test_engine_determinism);
    ("engine: ideal recovery", `Quick, test_ideal_recovery_not_slower);
    ("engine: deeper frontend", `Quick, test_deeper_frontend_not_faster);
    ("engine: wider machine", `Quick, test_wider_machine_not_slower);
    ("engine: mix totals", `Quick, test_mix_totals);
    ("engine: slow memory", `Quick, test_slow_memory_slower);
    ("engine: checkpointed RMT", `Quick, test_checkpointed_rmt_between);
    ("engine: checkpoint starvation", `Quick, test_checkpoint_starvation);
    ("engine: spadd limit negligible", `Quick, test_spadd_limit_negligible);
    ("engine: checker on built-in workloads", `Slow, test_checker_on_builtin_workloads);
    ("engine: pointer chase misses", `Slow, test_pointer_chase_misses) ]

let () = Alcotest.run "ooo" [ ("ooo", suite) ]
