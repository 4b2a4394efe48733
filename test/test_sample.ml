(* Sampling-subsystem tests:

   - spec parsing (suffixes, defaults, canonical rendering, JSON
     round-trip, rejection of malformed input);
   - recombination properties: permutation invariance (seeded QCheck),
     exactness when the intervals tile the whole run, and the
     sampled-CPI error shrinking as the interval count grows (both
     pipelines);
   - warming: a warmed fast-forward handoff never regresses the
     measured region's CPI against a cold one on a cache-hungry
     region, and warm state save/load round-trips;
   - interval checkpoints: materialize -> run_file reproduces the
     recombined estimate from a fresh process-like path, interval files
     are rejected by the engine-image restore path and vice versa;
   - full-vs-sampled validation: on workloads small enough to simulate
     exactly, the sampled estimate lands within its reported error bars
     of the exact CPI, on both pipelines. *)

module Params = Ooo_common.Params
module Stats = Ooo_common.Stats
module J = Json
module Exp = Straight_core.Experiment
module Sim = Snapshot.Sim
module Spec = Sample.Spec
module Interval = Sample.Interval
module Recombine = Sample.Recombine

let tmpdir prefix = Filename.temp_dir prefix ""

(* ---------- spec parsing ---------- *)

let test_spec_parse () =
  let sp = Spec.parse "interval=1M,warmup=100k,every=4" in
  Alcotest.(check int) "interval 1M" 1_000_000 sp.Spec.interval;
  Alcotest.(check int) "warmup 100k" 100_000 sp.Spec.warmup;
  Alcotest.(check int) "every 4" 4 sp.Spec.every;
  let sp = Spec.parse "interval=5000" in
  Alcotest.(check int) "bare digits" 5000 sp.Spec.interval;
  Alcotest.(check int) "warmup defaults to 0" 0 sp.Spec.warmup;
  Alcotest.(check int) "every defaults to 1" 1 sp.Spec.every;
  (* canonical rendering is suffix-free and parses back to itself *)
  let sp = Spec.parse "interval=2k,warmup=1K" in
  Alcotest.(check string) "canonical to_string"
    "interval=2000,warmup=1000,every=1" (Spec.to_string sp);
  Alcotest.(check bool) "to_string round-trips" true
    (Spec.parse (Spec.to_string sp) = sp);
  Alcotest.(check bool) "json round-trips" true
    (Spec.of_json (Spec.to_json sp) = sp);
  List.iter
    (fun bad ->
       Alcotest.(check bool)
         (Printf.sprintf "%S is rejected" bad)
         true
         (match Spec.parse bad with
          | _ -> false
          | exception Spec.Parse_error _ -> true))
    [ ""; "warmup=10"; "interval=0"; "interval=-5"; "interval=1G";
      "interval=1k,warmup=-1"; "interval=1k,every=0"; "interval";
      "interval=1k,bogus=2" ]

(* ---------- recombination properties ---------- *)

let mk_result i ~len ~cycles : Interval.result =
  { Interval.r_index = i; r_start = i * len; r_len = len; r_warmup = 0;
    r_cycles = cycles; r_warm_cycles = 0;
    r_cpi = { Stats.base = cycles; frontend = 0; branch_squash = 0;
              memory = 0; structural = 0 };
    r_host_seconds = 0. }

let est_key (e : Recombine.estimate) =
  (e.Recombine.intervals, e.Recombine.measured_insns, e.Recombine.cpi,
   e.Recombine.se, e.Recombine.ci95, e.Recombine.est_cycles,
   e.Recombine.stack)

let test_recombine_permutation_invariant () =
  (* bit-identical estimates whatever order the pool delivers results *)
  let gen =
    QCheck.make ~print:QCheck.Print.(list (pair int int))
      QCheck.Gen.(
        list_size (int_range 1 12)
          (pair (int_range 1 10_000) (int_range 1 50_000)))
  in
  let prop lens_cycles =
    let results =
      List.mapi
        (fun i (len, cycles) -> mk_result i ~len ~cycles)
        lens_cycles
    in
    let total = 10 * List.fold_left (fun a r -> a + r.Interval.r_len) 0 results in
    let reference = est_key (Recombine.recombine ~total_insns:total results) in
    (* a deterministic shuffle derived from the input *)
    let shuffled =
      List.sort
        (fun a b ->
           compare
             (Hashtbl.hash (a.Interval.r_cycles, a.Interval.r_index))
             (Hashtbl.hash (b.Interval.r_cycles, b.Interval.r_index)))
        results
    in
    let rev = List.rev results in
    est_key (Recombine.recombine ~total_insns:total shuffled) = reference
    && est_key (Recombine.recombine ~total_insns:total rev) = reference
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"recombine is permutation-invariant"
       gen prop)

let test_recombine_exact_tiling () =
  (* when the measured intervals tile the whole run, the estimate is
     the exact cycle count (no extrapolation error) *)
  let results =
    [ mk_result 0 ~len:100 ~cycles:250;
      mk_result 1 ~len:100 ~cycles:150;
      mk_result 2 ~len:50 ~cycles:100 ]
  in
  let e = Recombine.recombine ~total_insns:250 results in
  Alcotest.(check int) "est_cycles = sum cycles" 500
    (int_of_float e.Recombine.est_cycles);
  Alcotest.(check (float 1e-9)) "cpi = cycles/insns" 2.0 e.Recombine.cpi;
  Alcotest.(check (float 1e-9)) "stack sums to cpi" e.Recombine.cpi
    (List.fold_left (fun a (_, v) -> a +. v) 0. e.Recombine.stack);
  (* a single interval has no spread to estimate from *)
  let one = Recombine.recombine ~total_insns:100
      [ mk_result 0 ~len:100 ~cycles:300 ] in
  Alcotest.(check (float 0.)) "k=1 has zero SE" 0. one.Recombine.se

let test_merge_stacks_heterogeneous () =
  (* bucket names are unioned across intervals; an interval lacking a
     bucket contributes zero cycles instead of raising [Not_found] (the
     old code took the names from the first interval alone and then
     [List.assoc]-ed into the rest) *)
  let stacks = [ [ ("a", 2); ("b", 4) ]; [ ("b", 6); ("c", 10) ] ] in
  let merged = Recombine.merge_stacks ~measured_insns:2 stacks in
  Alcotest.(check (list string)) "union of names, first-seen order"
    [ "a"; "b"; "c" ]
    (List.map fst merged);
  let v name = List.assoc name merged in
  Alcotest.(check (float 1e-9)) "a: 2/2" 1.0 (v "a");
  Alcotest.(check (float 1e-9)) "b: (4+6)/2" 5.0 (v "b");
  Alcotest.(check (float 1e-9)) "c: 10/2" 5.0 (v "c");
  (* the merged stack still accounts for every measured cycle *)
  let total =
    List.fold_left
      (fun acc stack -> List.fold_left (fun acc (_, n) -> acc + n) acc stack)
      0 stacks
  in
  Alcotest.(check (float 1e-9)) "stack sums to total cycles / insns"
    (float_of_int total /. 2.0)
    (List.fold_left (fun acc (_, x) -> acc +. x) 0.0 merged);
  (* degenerate shapes stay total *)
  Alcotest.(check (list (pair string (float 0.)))) "no intervals" []
    (Recombine.merge_stacks ~measured_insns:1 []);
  Alcotest.(check (list (pair string (float 0.)))) "empty stacks" []
    (Recombine.merge_stacks ~measured_insns:1 [ []; [] ])

(* both pipelines share the sampling machinery end to end; the matrix
   below exercises each *)
let targets =
  [ ("straight", Exp.Straight_re, Params.straight_2way);
    ("riscv", Exp.Riscv, Params.ss_2way) ]

let sampled_estimate ~dir ~target ~model ~spec_str w =
  let sp = Spec.parse spec_str in
  let spec = Sim.spec ~model ~target w in
  let plan, _ = Interval.materialize ~dir spec sp in
  let results =
    List.map
      (fun (e : Interval.entry) -> Interval.run_file e.Interval.path)
      plan.Interval.entries
  in
  (Recombine.recombine ~total_insns:plan.Interval.total_retired results, plan)

let test_error_shrinks_with_intervals () =
  (* SMARTS: at a fixed interval length, measuring more intervals
     (every=6 -> 3 -> 1) tightens the CI by ~1/sqrt(k).  The simulator
     is deterministic, so this is a hard property of the recombiner's
     SE on real data, not a statistical coin flip.  (Shrinking the
     interval LENGTH instead would not do: shorter intervals also have
     higher per-interval variance, which can cancel the 1/sqrt(k).) *)
  let dir = tmpdir "straight-sample-shrink" in
  List.iter
    (fun (label, target, model) ->
       let w = Workloads.dhrystone ~iterations:100 () in
       let ci every =
         let e, _ =
           sampled_estimate ~dir ~target ~model
             ~spec_str:
               (Printf.sprintf "interval=2k,warmup=500,every=%d" every)
             w
         in
         (e.Recombine.intervals, e.Recombine.ci95)
       in
       let k6, ci6 = ci 6 and k3, ci3 = ci 3 and k1, ci1 = ci 1 in
       Alcotest.(check bool)
         (label ^ ": denser sampling yields more intervals") true
         (k6 < k3 && k3 < k1);
       Alcotest.(check bool)
         (Printf.sprintf
            "%s: ci95 shrinks monotonically (k=%d %.4f > k=%d %.4f > k=%d \
             %.4f)"
            label k6 ci6 k3 ci3 k1 ci1)
         true
         (ci6 > ci3 && ci3 > ci1))
    targets

(* ---------- full-vs-sampled validation ---------- *)

let test_sampled_within_error_bars () =
  let dir = tmpdir "straight-sample-validate" in
  List.iter
    (fun (label, target, model) ->
       let w = Workloads.dhrystone ~iterations:40 () in
       let est, plan =
         sampled_estimate ~dir ~target ~model
           ~spec_str:"interval=5k,warmup=1k" w
       in
       let exact = Exp.run ~model ~target w in
       Alcotest.(check int)
         (label ^ ": sampler and exact run retire the same stream")
         exact.Exp.committed plan.Interval.total_retired;
       let v =
         Recombine.check est ~exact_cycles:exact.Exp.cycles ~floor:0.02
       in
       Alcotest.(check bool)
         (Printf.sprintf
            "%s: estimate %.4f within max(ci95=%.4f, floor) of exact %.4f"
            label est.Recombine.cpi est.Recombine.ci95 v.Recombine.exact_cpi)
         true v.Recombine.ok)
    targets

(* ---------- warmed handoff ---------- *)

let test_warm_handoff_helps () =
  (* fast-forward past a cache-warming prefix: the warmed handoff must
     reproduce a region CPI no worse than the cold one (it shares every
     other input), and for this workload strictly better front-end and
     memory behavior is expected *)
  let w = Workloads.dhrystone ~iterations:40 () in
  let spec = Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re w in
  let image = Sim.compile spec in
  let region warm =
    let s =
      Ooo_common.Pipeline.start_region ~warm ~from:15_000
        Params.straight_2way image
    in
    let e = s.Ooo_common.Pipeline.engine in
    while not (Ooo_common.Engine.finished e) do
      Ooo_common.Engine.step e
    done;
    let r = Ooo_common.Pipeline.finish s in
    r.Ooo_common.Pipeline.stats.Ooo_common.Engine.cycles
  in
  let cold = region false and warmed = region true in
  Alcotest.(check bool)
    (Printf.sprintf "warmed region (%d cycles) <= cold region (%d cycles)"
       warmed cold)
    true (warmed <= cold)

let test_warm_save_load_roundtrip () =
  let w = Workloads.dhrystone ~iterations:5 () in
  let spec = Sim.spec ~model:Params.ss_2way ~target:Exp.Riscv w in
  let image = Sim.compile spec in
  let warm = Ooo_common.Warm.create Params.ss_2way in
  let s =
    Iss.Riscv_iss.start
      ~config:{ Iss.Riscv_iss.collect_trace = false; max_insns = 50_000_000 }
      ~on_retire:(fun _ u -> Ooo_common.Warm.observe warm u)
      image
  in
  Iss.Riscv_iss.run_session s;
  let b = Buffer.create 4096 in
  Ooo_common.Warm.save b warm;
  let snap = Buffer.contents b in
  let warm' = Ooo_common.Warm.create Params.ss_2way in
  Ooo_common.Warm.load (Ooo_common.Bin.reader snap) warm';
  Alcotest.(check int) "observed count survives" warm.Ooo_common.Warm.observed
    warm'.Ooo_common.Warm.observed;
  let b' = Buffer.create 4096 in
  Ooo_common.Warm.save b' warm';
  Alcotest.(check bool) "save(load(save)) is bit-identical" true
    (String.equal snap (Buffer.contents b'))

(* ---------- interval checkpoint files ---------- *)

let test_interval_files () =
  let dir = tmpdir "straight-sample-files" in
  let w = Workloads.quicksort () in
  let spec = Sim.spec ~model:Params.ss_2way ~target:Exp.Riscv w in
  let sp = Spec.parse "interval=4k,warmup=500" in
  let plan, cached = Interval.materialize ~dir spec sp in
  Alcotest.(check bool) "first materialize misses the store" false cached;
  Alcotest.(check bool) "plan has entries" true (plan.Interval.entries <> []);
  let plan2, cached2 = Interval.materialize ~dir spec sp in
  Alcotest.(check bool) "second materialize hits the store" true cached2;
  Alcotest.(check bool) "cached plan is identical" true (plan = plan2);
  (* a different sampling spec is a different plan *)
  let plan3, cached3 =
    Interval.materialize ~dir spec (Spec.parse "interval=4k,warmup=600")
  in
  Alcotest.(check bool) "different spec misses" false cached3;
  Alcotest.(check bool) "different spec, different key" true
    (plan3.Interval.key <> plan.Interval.key);
  let entry = List.hd plan.Interval.entries in
  (* per-interval results survive the pool's JSON-line transport *)
  let r = Interval.run_file entry.Interval.path in
  let r' =
    Interval.result_of_json
      (J.of_string (J.to_string ~indent:false (Interval.result_to_json r)))
  in
  Alcotest.(check bool) "result JSON round-trips" true (r = r');
  Alcotest.(check int) "measured length matches the entry"
    entry.Interval.len r.Interval.r_len;
  Alcotest.(check bool) "cpi stack sums to interval cycles" true
    (Stats.cpi_total r.Interval.r_cpi = r.Interval.r_cycles);
  (* kind confusion is rejected in both directions *)
  Alcotest.(check bool) "engine-image restore rejects an interval file" true
    (match Sim.restore entry.Interval.path with
     | _ -> false
     | exception Diag.Error d -> d.Diag.code = Diag.Snapshot_error);
  let engine_snap = Filename.concat dir "engine.snap" in
  let session = Sim.start spec in
  Sim.step session;
  Sim.save session engine_snap;
  Alcotest.(check bool) "run_file rejects an engine-image file" true
    (match Interval.run_file engine_snap with
     | _ -> false
     | exception Diag.Error d -> d.Diag.code = Diag.Snapshot_error)

(* ---------- sweep integration ---------- *)

let test_sweep_sampled_axis () =
  (* the fidelity axis multiplies the grid and sampled records carry
     their error bars through the cache's JSON round-trip *)
  let dir = tmpdir "straight-sample-sweep" in
  let spec =
    { Sweep.Grid.smoke with
      Sweep.Grid.workloads = [ "quicksort" ];
      samples = [ None; Some (Spec.parse "interval=4k,warmup=500") ] }
  in
  let records, summary = Sweep.Driver.sweep ~procs:0 ~cache_dir:dir spec in
  Alcotest.(check int) "exact x sampled = 2 points" 2
    summary.Sweep.Driver.total;
  let exact =
    List.find (fun r -> r.Sweep.Runner.sample = None) records
  in
  let sampled =
    List.find (fun r -> r.Sweep.Runner.sample <> None) records
  in
  Alcotest.(check bool) "sampled record reports intervals" true
    (sampled.Sweep.Runner.sample_intervals >= 1);
  let err =
    Float.abs
      (float_of_int sampled.Sweep.Runner.cycles
       -. float_of_int exact.Sweep.Runner.cycles)
      /. float_of_int exact.Sweep.Runner.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled cycles within 5%% of exact (err %.4f)" err)
    true (err < 0.05);
  (* records coming back from the cache keep the sample spec *)
  let records2, summary2 = Sweep.Driver.sweep ~procs:0 ~cache_dir:dir spec in
  Alcotest.(check int) "second sweep is all cache hits" 2
    summary2.Sweep.Driver.cached;
  List.iter2
    (fun (a : Sweep.Runner.record) (b : Sweep.Runner.record) ->
       Alcotest.(check bool) "cached record preserves the sample axis" true
         (a.Sweep.Runner.sample = b.Sweep.Runner.sample
          && a.Sweep.Runner.sample_ci95 = b.Sweep.Runner.sample_ci95))
    records records2

let suite =
  [ Alcotest.test_case "spec: parse/render/json" `Quick test_spec_parse;
    Alcotest.test_case "recombine: permutation invariance" `Quick
      test_recombine_permutation_invariant;
    Alcotest.test_case "recombine: exact tiling" `Quick
      test_recombine_exact_tiling;
    Alcotest.test_case "recombine: heterogeneous bucket union" `Quick
      test_merge_stacks_heterogeneous;
    Alcotest.test_case "warm: save/load round-trip" `Quick
      test_warm_save_load_roundtrip;
    Alcotest.test_case "warm: handoff no worse than cold" `Slow
      test_warm_handoff_helps;
    Alcotest.test_case "interval: files, store, rejection" `Slow
      test_interval_files;
    Alcotest.test_case "error bars shrink with interval count" `Slow
      test_error_shrinks_with_intervals;
    Alcotest.test_case "sampled CPI within error bars (both pipelines)" `Slow
      test_sampled_within_error_bars;
    Alcotest.test_case "sweep: sampled fidelity axis" `Slow
      test_sweep_sampled_axis ]

let () = Alcotest.run "sample" [ ("sample", suite) ]
