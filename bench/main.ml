(* Simulator performance harness (the paper's tables come from `make
   paper`):

     dune exec bench/main.exe [-- micro] [--quick] [--json OUT]

   [micro] (the default) runs Bechamel microbenchmarks of the simulator's
   primitives.  [--json OUT] runs the perf suite: every Table-I model on
   dhrystone and coremark, several repetitions each, timing the engine
   alone.  OUT receives the median host throughput (simulated kilocycles
   per host second), IPC, and the CPI stack per model x workload — the
   format scripts/bench_gate.ml consumes (EXPERIMENTS.md has the
   schema). *)

module Models = Straight_core.Models
module Exp = Straight_core.Experiment
module Compile = Straight_core.Compile
module Engine = Ooo_common.Engine
module Stats = Ooo_common.Stats

let quick = ref false

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* ---------- Bechamel microbenchmarks ---------- *)

let micro () =
  header "Microbenchmarks (Bechamel): simulator primitives";
  let open Bechamel in
  let gshare = Ooo_common.Branch_pred.gshare () in
  let tage = Ooo_common.Branch_pred.tage () in
  let cache = Ooo_common.Cache.create Ooo_common.Params.l1_32k in
  let pc = ref 0 in
  let tests =
    [ Test.make ~name:"gshare predict+update"
        (Staged.stage (fun () ->
             pc := (!pc + 4) land 0xFFFF;
             let t = gshare.Ooo_common.Branch_pred.predict !pc in
             gshare.Ooo_common.Branch_pred.update !pc (not t)));
      Test.make ~name:"tage predict+update"
        (Staged.stage (fun () ->
             pc := (!pc + 4) land 0xFFFF;
             let t = tage.Ooo_common.Branch_pred.predict !pc in
             tage.Ooo_common.Branch_pred.update !pc (not t)));
      Test.make ~name:"L1 cache touch"
        (Staged.stage (fun () ->
             pc := (!pc + 64) land 0xFFFFF;
             ignore (Ooo_common.Cache.touch cache !pc)));
      Test.make ~name:"straight encode+decode"
        (Staged.stage (fun () ->
             let w =
               Straight_isa.Encoding.encode
                 (Straight_isa.Isa.Alu (Straight_isa.Isa.Add, 1, 2))
             in
             ignore (Straight_isa.Encoding.decode w)));
      Test.make ~name:"riscv encode+decode"
        (Staged.stage (fun () ->
             let w =
               Riscv_isa.Encoding.encode
                 (Riscv_isa.Isa.Alu (Riscv_isa.Isa.Add, 1, 2, 3))
             in
             ignore (Riscv_isa.Encoding.decode w))) ]
  in
  List.iter
    (fun test ->
       let instances = Toolkit.Instance.[ monotonic_clock ] in
       let cfg =
         Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
       in
       let raw = Benchmark.all cfg instances test in
       let ols =
         Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
       in
       let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
       Hashtbl.iter
         (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.printf "%-28s %10.1f ns/op\n%!" name est
            | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
         results)
    tests

(* ---------- perf suite (--json): host throughput + CPI stack ---------- *)

(* Times the cycle engine alone: compilation and the functional ISS run
   happen once per configuration outside the timed region, the collected
   trace feeds each repetition through a fresh stream window, and each
   repetition re-creates the lockstep checker (part of the default
   simulation loop, so it stays inside the measurement).  Throughput is
   reported as simulated kilocycles per host second. *)
let json_suite out =
  header (Printf.sprintf "perf suite --> %s" out);
  let reps = if !quick then 7 else 9 in
  let combos =
    [ (Models.ss_2way, Exp.Riscv);
      (Models.ss_4way, Exp.Riscv);
      (Models.straight_2way, Exp.Straight_re);
      (Models.straight_4way, Exp.Straight_re) ]
  in
  let workloads =
    List.map (Workloads.resolve ~quick:!quick) [ "dhrystone"; "coremark" ]
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time_engine (model : Ooo_common.Params.t) target (w : Workloads.t) =
    let image =
      (Compile.compile (Exp.codegen target) w.Workloads.source).Compile.image
    in
    let s = Iss.Machine.start ~collect_trace:true image in
    Iss.Machine.run_session s;
    let r = Iss.Machine.finish s in
    let decode_static = Iss.Machine.static_uop s in
    let checker () =
      Some
        (Ooo_common.Checker.create ~max_dist:Ooo_common.Params.straight_max_dist
           ~rename:model.Ooo_common.Params.rename ~retired:r.Iss.Trace.retired
           ())
    in
    let window () = Ooo_common.Window.of_array r.Iss.Trace.trace in
    (* one untimed warmup settles the heap before measuring *)
    ignore
      (Engine.run model ~window:(window ()) ~decode_static
         ?checker:(checker ()) ());
    List.init reps (fun _ ->
        let checker = checker () in
        let window = window () in
        let t0 = Unix.gettimeofday () in
        let s = Engine.run model ~window ~decode_static ?checker () in
        let dt = Unix.gettimeofday () -. t0 in
        (float_of_int s.Engine.cycles /. dt /. 1000., s))
  in
  let entries =
    List.concat_map
      (fun (model, target) ->
         List.map
           (fun (w : Workloads.t) ->
              let results = time_engine model target w in
              let khz = List.map fst results in
              let s = snd (List.hd results) in
              let med = median khz in
              (* best-of-N: the noise-robust statistic the gate compares *)
              let best = List.fold_left Float.max 0.0 khz in
              Printf.printf "%-14s %-14s %-10s %9d cyc  ipc %5.3f  %8.1f kc/s\n%!"
                model.Ooo_common.Params.name (Exp.target_label target)
                w.Workloads.name s.Engine.cycles s.Engine.ipc med;
              Json.Obj
                [ ("model", Json.Str model.Ooo_common.Params.name);
                  ("target", Json.Str (Exp.target_label target));
                  ("workload", Json.Str w.Workloads.name);
                  ("cycles", Json.Int s.Engine.cycles);
                  ("instructions", Json.Int s.Engine.committed);
                  ("ipc", Json.Float s.Engine.ipc);
                  ("khz_reps",
                   Json.List (List.map (fun k -> Json.Float k) khz));
                  ("khz_median", Json.Float med);
                  ("khz_best", Json.Float best);
                  ("cpi_stack", Stats.cpi_to_json s.Engine.cpi_stack) ])
           workloads)
      combos
  in
  let label =
    let base = Filename.remove_extension (Filename.basename out) in
    if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
      String.sub base 6 (String.length base - 6)
    else base
  in
  let json =
    Json.Obj
      [ ("schema", Json.Str "straight-bench/1");
        ("label", Json.Str label);
        ("quick", Json.Bool !quick);
        ("reps", Json.Int reps);
        ("entries", Json.List entries) ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string json));
  Printf.printf "wrote %s (%d entries)\n%!" out (List.length entries)

(* ---------- driver ---------- *)

let () =
  let json_out = ref "" in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest -> quick := true; parse acc rest
    | "--json" :: out :: rest -> json_out := out; parse acc rest
    | [ "--json" ] ->
      prerr_endline "--json needs an output path"; exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  (match parse [] (Array.to_list Sys.argv |> List.tl) with
   | [] -> if !json_out = "" then micro ()
   | names ->
     List.iter
       (function
         | "micro" -> micro ()
         | name ->
           Printf.eprintf "unknown bench %S; available: micro\n" name;
           exit 2)
       names);
  if !json_out <> "" then json_suite !json_out
