(* Self-tests of the benchmark: span arithmetic, the metric table
   against BENCHMARK.json, and each output check rejecting an injected
   wrong result. *)

open Stackbench
module Json = Ooo_common.Stats.Json
module Recombine = Sample.Recombine

let approx = Alcotest.float 1e-9

(* ---------- spans ---------- *)

let span ~id ~parent ?(track = 0) name start stop =
  { Span.id; name; start; stop; parent; op = 0; track }

(* root [0,10] holds a [1,4] (with grandchild [1,2]) and b [3,6]; a
   worker span [2,9] on track 7 runs beside the root. *)
let tree =
  [ span ~id:0 ~parent:(-1) "pass" 0. 10.; span ~id:1 ~parent:0 "a" 1. 4.;
    span ~id:2 ~parent:1 "c" 1. 2.; span ~id:3 ~parent:0 "b" 3. 6.;
    span ~id:4 ~parent:0 ~track:7 "w" 2. 9. ]

let self_of name =
  List.assoc name
    (List.map (fun ((s : Span.t), t) -> (s.Span.name, t)) (Span.self_times tree))

let test_self_time () =
  (* children cover [1,6] of the root: overlap counted once *)
  Alcotest.check approx "root" 5. (self_of "pass");
  Alcotest.check approx "a" 2. (self_of "a");
  Alcotest.check approx "c" 1. (self_of "c");
  Alcotest.check approx "b" 3. (self_of "b");
  Alcotest.check approx "worker" 7. (self_of "w")

let test_coverage () =
  Alcotest.check approx "coverage" 0.5 (Span.coverage ~root:"pass" tree);
  Alcotest.(check (list (pair string approx)))
    "driver-track self time by name"
    [ ("a", 2.); ("b", 3.); ("c", 1.); ("pass", 5.) ]
    (Span.self_by_name tree);
  Alcotest.check approx "clipped union" 4.
    (Span.covered ~lo:0. ~hi:5. [ (4., 8.); (-1., 1.); (0.5, 2.); (2., 3.) ])

(* ---------- metric names ---------- *)

let declared section =
  let doc =
    Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)
  in
  Option.get (Json.get_list (Json.member section doc))
  |> List.map (fun m ->
      ( Option.get (Json.get_string (Json.member "name" m)),
        Option.get (Json.get_string (Json.member "unit" m)) ))

(* Names and units the driver prints in a run of each mode. *)
let printed ~table values =
  let line = Metrics.render ~correct:true ~attempted:1 ~failed:0 ~table values in
  match Json.member "metrics" (Json.of_string line) with
  | Some (Json.Obj ms) ->
    List.map
      (fun (k, v) -> (k, Option.get (Json.get_string (Json.member "unit" v))))
      ms
  | _ -> Alcotest.fail "no metrics object"

let sorted l = List.sort compare l

let test_end_to_end_declared () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted (declared "end_to_end"))
    (sorted (printed ~table:Metrics.end_to_end []))

let test_per_layer_declared () =
  let empty = { Counts.sums = []; ops = [] } in
  let values =
    Metrics.layer_values ~spans:tree ~passes:1 ~procs:2 ~counts:empty
      ~pass:empty ~overhead_ms:0.
  in
  Alcotest.(check (list string))
    "every per-layer value is in the table"
    (sorted (List.map fst values))
    (sorted (List.map fst Metrics.per_layer));
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted (declared "per_layer"))
    (sorted (printed ~table:Metrics.per_layer values))

(* ---------- output checks ---------- *)

let obs output =
  { Layer.output; exit_value = 3l; globals = Digest.string "globals" }

let test_observed_check () =
  Alcotest.(check int) "identical" 0
    (List.length (Check.observed ~expected:(obs "7\n") (obs "7\n")));
  let compile_result expected =
    { W_compile.label = "p/riscv"; expected; actual = obs "7\n" }
  in
  Alcotest.(check bool) "compile rejects a perturbed reference output" true
    (W_compile.check [] [ compile_result (obs "8\n") ] [] <> []);
  Alcotest.(check bool) "compile rejects another exit value" true
    (W_compile.check []
       [ compile_result { (obs "7\n") with Layer.exit_value = 4l } ]
       []
     <> []);
  Alcotest.(check bool) "compile rejects other globals" true
    (W_compile.check []
       [ compile_result { (obs "7\n") with Layer.globals = Digest.string "x" } ]
       []
     <> [])

(* A real engine run's statistics (a few hundred cycles), perturbed. *)
let iota_stats =
  lazy
    (Straight_core.Experiment.run ~model:Ooo_common.Params.ss_2way
       ~target:Straight_core.Experiment.Riscv (Workloads.iota ~n:4 ()))
      .Straight_core.Experiment.stats

let stats ~cycles ~committed ~checked ~base =
  let s = Lazy.force iota_stats in
  { s with
    Ooo_common.Engine.cycles;
    committed;
    commits_checked = checked;
    cpi_stack = { Ooo_common.Stats.empty_cpi with Ooo_common.Stats.base } }

(* A real image and its interpreter reference; the check takes the exit
   value from an ISS run of the image. *)
let exact_input =
  lazy
    (let src = (Workloads.iota ~n:4 ()).Workloads.source in
     { W_exact.refs = [ ("p", Layer.interp ~layout:[] (Layer.front src)) ];
       images = [ (("p", Layer.Riscv), Layer.compile Layer.Riscv src) ] })

let exact_result ?output s =
  let input = Lazy.force exact_input in
  let output =
    Option.value output ~default:(List.assoc "p" input.W_exact.refs).Layer.output
  in
  { W_exact.r_label = "m/t/p"; r_prog = "p"; r_target = Layer.Riscv;
    r_run = { Layer.output; retired = 10; stats = s } }

let test_exact_check () =
  let input = Lazy.force exact_input in
  let good = stats ~cycles:20 ~committed:10 ~checked:10 ~base:20 in
  Alcotest.(check (list (pair string string))) "consistent run" []
    (W_exact.check input [ exact_result good ] []);
  Alcotest.(check bool) "perturbed output" true
    (W_exact.check input [ exact_result ~output:"8\n" good ] [] <> []);
  let perturbed =
    List.map
      (fun (p, (o : Layer.observed)) ->
         (p, { o with Layer.exit_value = Int32.succ o.Layer.exit_value }))
      input.W_exact.refs
  in
  Alcotest.(check bool) "perturbed reference exit value" true
    (W_exact.check { input with W_exact.refs = perturbed }
       [ exact_result good ] []
     <> []);
  Alcotest.(check bool) "unchecked commits" true
    (W_exact.check input
       [ exact_result (stats ~cycles:20 ~committed:10 ~checked:9 ~base:20) ]
       []
     <> []);
  Alcotest.(check bool) "CPI buckets short of the cycles" true
    (W_exact.check input
       [ exact_result (stats ~cycles:20 ~committed:10 ~checked:10 ~base:19) ]
       []
     <> [])

let test_counts_check () =
  let snap sums ops = { Counts.sums; ops } in
  let first =
    snap [ ("engine.cycles", 100.); ("tv.abstains", 0.) ]
      [ ("a", [ ("cycles", 100.) ]) ]
  in
  Alcotest.(check (list string)) "repeated" [] (Check.counts ~first first);
  Alcotest.(check bool) "a total differs" true
    (Check.counts ~first
       (snap [ ("engine.cycles", 101.); ("tv.abstains", 0.) ] first.Counts.ops)
     <> []);
  Alcotest.(check bool) "a total is missing" true
    (Check.counts ~first (snap [ ("engine.cycles", 100.) ] first.Counts.ops)
     <> []);
  Alcotest.(check bool) "an operation's detail differs" true
    (Check.counts ~first
       (snap first.Counts.sums [ ("a", [ ("cycles", 99.) ]) ])
     <> [])

let estimate ~cpi ~total_insns =
  { Recombine.intervals = 4; measured_insns = 1000; total_insns; cpi;
    se = 0.0005; ci95 = 0.001; est_cycles = cpi *. float_of_int total_insns;
    stack = [ ("base", cpi) ]; host_seconds = 1. }

let sampled ~cpi ~warm_cpi =
  let label = "straight-4way/re+" in
  let cycles, insns = List.assoc label W_sampled.reference in
  let exact = float_of_int cycles /. float_of_int insns in
  let r cached c =
    { W_sampled.r_label = label; r_cached = cached;
      r_estimate = estimate ~cpi:(c *. exact) ~total_insns:insns }
  in
  W_sampled.check [] [ r false cpi ] [ r true warm_cpi ]

let test_sampled_check () =
  Alcotest.(check int) "on the exact CPI" 0
    (List.length (sampled ~cpi:1.0 ~warm_cpi:1.0));
  Alcotest.(check bool) "CPI outside tolerance" true
    (sampled ~cpi:1.1 ~warm_cpi:1.1 <> []);
  Alcotest.(check bool) "warm differs from cold" true
    (sampled ~cpi:1.0 ~warm_cpi:1.001 <> [])

let no_named = { W_verify.named = []; trials = [] }

let test_verify_check () =
  let result outcome = { W_verify.label = "mutant-1"; outcome } in
  Alcotest.(check bool) "mutant reported as validated" true
    (W_verify.check no_named
       [ result (W_verify.Mutant (Check.Missed, "drop an RMOV")) ]
       []
     <> []);
  Alcotest.(check int) "caught and equivalent mutants pass" 0
    (List.length
       (W_verify.check no_named
          [ result (W_verify.Mutant (Check.Caught, "d"));
            result (W_verify.Mutant (Check.Equivalent, "d")) ]
          []));
  Alcotest.(check bool) "an Error finding on a correct image" true
    (W_verify.check no_named
       [ result
           (W_verify.Findings
              [ Lint_report.finding ~pc:0 ~check:"tv-store" "mismatch" ]) ]
       []
     <> []);
  Alcotest.(check bool) "classifier" true
    (Check.mutant ~caught:false ~original:"ok:0:1" ~mutated:"ok:0:2"
     = Check.Missed)

let () =
  Alcotest.run "stackbench"
    [ ("spans",
       [ Alcotest.test_case "self time" `Quick test_self_time;
         Alcotest.test_case "coverage" `Quick test_coverage ]);
      ("metrics",
       [ Alcotest.test_case "end-to-end declared" `Quick test_end_to_end_declared;
         Alcotest.test_case "per-layer declared" `Quick test_per_layer_declared ]);
      ("checks",
       [ Alcotest.test_case "observed" `Quick test_observed_check;
         Alcotest.test_case "exact" `Quick test_exact_check;
         Alcotest.test_case "sampled" `Quick test_sampled_check;
         Alcotest.test_case "verify" `Quick test_verify_check;
         Alcotest.test_case "counts" `Quick test_counts_check ]) ]
