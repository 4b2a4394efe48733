(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Sections V-VI).  Each subcommand prints the rows/series the
   paper reports; `all` runs everything (the default).

     dune exec bench/main.exe [-- table1|fig10|fig11|fig12|fig13|fig14|
                                  fig15|fig16|fig17|sweep_maxdist|ablation|
                                  micro|all] [--quick] [--json OUT]

   With [--json OUT] the perf suite also runs: every Table-I model on
   dhrystone and coremark, several repetitions each, timing the engine
   alone (compile and the functional ISS run are hoisted out of the
   timed region).  OUT receives the median host throughput (simulated
   kilocycles per host second), IPC, and the CPI stack per model x
   workload — the format scripts/bench_gate.ml consumes (see
   EXPERIMENTS.md for the schema).  With --json and no subcommand, only
   the perf suite runs.

   Absolute cycle counts differ from the paper (our substrate is our own
   simulator, not the authors' testbed); the reproduced quantities are the
   relative-performance shapes.  See EXPERIMENTS.md for paper-vs-measured
   numbers. *)

module Models = Straight_core.Models
module Exp = Straight_core.Experiment
module Compile = Straight_core.Compile
module Engine = Ooo_common.Engine
module Stats = Ooo_common.Stats

let quick = ref false

let dhrystone () = Workloads.dhrystone ~iterations:(if !quick then 30 else 200) ()
let coremark () = Workloads.coremark ~iterations:(if !quick then 2 else 5) ()

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* memoize experiment runs: several figures reuse the same configurations.
   The key is the stable params digest (which covers every model field,
   fault-injection plan included) plus the run knobs that live outside
   Params.t — the same key family the sweep subsystem's on-disk cache
   uses, so a config change can never alias a stale result through a
   shared model name. *)
let cache : (string, Exp.result) Hashtbl.t = Hashtbl.create 32

let run ?max_dist ~model ~target w =
  let key =
    Printf.sprintf "%s/%s/%s/%d"
      (Ooo_common.Params.digest model)
      (Exp.target_label target) w.Workloads.name
      (Option.value ~default:Ooo_common.Params.straight_max_dist max_dist)
  in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let r = Exp.run ?max_dist ~model ~target w in
    Hashtbl.replace cache key r;
    r

let rel ~base r = float_of_int base.Exp.cycles /. float_of_int r.Exp.cycles

(* ---------- Table I ---------- *)

let table1 () =
  header "Table I: evaluated models";
  let p fmt = Printf.printf fmt in
  let row name f =
    p "%-18s" name;
    List.iter (fun m -> p " %14s" (f m)) Models.all;
    p "\n"
  in
  p "%-18s" "";
  List.iter (fun m -> p " %14s" m.Ooo_common.Params.name) Models.all;
  p "\n";
  let s = string_of_int in
  row "ISA" (fun m ->
      match m.Ooo_common.Params.rename with
      | Ooo_common.Params.Rmt _ | Ooo_common.Params.Rmt_checkpoint _ ->
        "RV32IM"
      | Ooo_common.Params.Rp -> "STRAIGHT");
  row "Fetch width" (fun m -> s m.Ooo_common.Params.fetch_width);
  row "Front-end latency" (fun m -> s m.Ooo_common.Params.frontend_depth);
  row "ROB capacity" (fun m -> s m.Ooo_common.Params.rob_entries);
  row "Scheduler" (fun m ->
      Printf.sprintf "%d way, %d ent" m.Ooo_common.Params.issue_width
        m.Ooo_common.Params.scheduler_entries);
  row "Register file" (fun m ->
      match m.Ooo_common.Params.rename with
      | Ooo_common.Params.Rmt { phys_regs }
      | Ooo_common.Params.Rmt_checkpoint { phys_regs; _ } -> s phys_regs
      | Ooo_common.Params.Rp ->
        Printf.sprintf "%d (31+%d)"
          (Ooo_common.Params.straight_max_dist + m.Ooo_common.Params.rob_entries)
          m.Ooo_common.Params.rob_entries);
  row "LSQ" (fun m ->
      Printf.sprintf "LD %d / ST %d" m.Ooo_common.Params.ldq_entries
        m.Ooo_common.Params.stq_entries);
  row "Exec units" (fun m ->
      Printf.sprintf "A%d M%d D%d B%d Mem%d" m.Ooo_common.Params.n_alu
        m.Ooo_common.Params.n_mul m.Ooo_common.Params.n_div
        m.Ooo_common.Params.n_bc m.Ooo_common.Params.n_mem);
  row "Commit width" (fun m -> s m.Ooo_common.Params.commit_width);
  row "L3 cache" (fun m ->
      match m.Ooo_common.Params.l3 with
      | Some _ -> "2 MiB/42cyc"
      | None -> "N/A")

(* ---------- Fig. 10: RAW vs RE+ code for iota ---------- *)

let fig10 () =
  header "Fig. 10: iota() compiled RAW vs RE+";
  let src = (Workloads.iota ~n:16 ()).Workloads.source in
  let show target label =
    let out = Compile.compile (Exp.codegen ~max_dist:1023 target) src in
    let stats = Option.get out.Compile.stats in
    let r = Iss.Straight_iss.run out.Compile.image in
    Printf.printf "--- %s: %d static instructions (%d RMOV, %d NOP), %d retired ---\n"
      label stats.Straight_cc.Codegen.total stats.Straight_cc.Codegen.rmov
      stats.Straight_cc.Codegen.nop r.Iss.Trace.retired;
    (* print only the iota function body *)
    let lines = String.split_on_char '\n' (Lazy.force out.Compile.listing) in
    let in_f = ref false in
    List.iter
      (fun l ->
         if l = "f_iota:" then in_f := true
         else if String.length l > 2 && l.[0] = 'f' && l.[1] = '_' then in_f := false;
         if !in_f then print_endline l)
      lines
  in
  show Exp.Straight_raw "RAW (basic algorithm, Sections IV-A..C)";
  show Exp.Straight_re "RE+ (redundancy elimination, Section IV-D)"

(* ---------- Figs. 11/12: relative performance ---------- *)

let perf_figure ~title ~(ss : Ooo_common.Params.t) ~(straight : Ooo_common.Params.t) =
  header title;
  Printf.printf "%-12s %-18s %10s %10s %14s\n" "workload" "config" "cycles"
    "insts" "rel. perf";
  List.iter
    (fun w ->
       let base = run ~model:ss ~target:Exp.Riscv w in
       let show label r =
         Printf.printf "%-12s %-18s %10d %10d %14.3f\n%!" w.Workloads.name
           label r.Exp.cycles r.Exp.committed (rel ~base r)
       in
       show "SS" base;
       show "STRAIGHT(RAW)" (run ~model:straight ~target:Exp.Straight_raw w);
       show "STRAIGHT(RE+)" (run ~model:straight ~target:Exp.Straight_re w))
    [ dhrystone (); coremark () ]

let fig11 () =
  perf_figure
    ~title:"Fig. 11: performance, 4-way (normalized to SS-4way)"
    ~ss:Models.ss_4way ~straight:Models.straight_4way

let fig12 () =
  perf_figure
    ~title:"Fig. 12: performance, 2-way (normalized to SS-2way)"
    ~ss:Models.ss_2way ~straight:Models.straight_2way

(* ---------- Fig. 13: effect of the misprediction penalty ---------- *)

let fig13 () =
  header "Fig. 13: misprediction-penalty effect (CoreMark, normalized to SS-2way)";
  let w = coremark () in
  let base = run ~model:Models.ss_2way ~target:Exp.Riscv w in
  let show label r =
    Printf.printf "%-24s %10d %14.3f\n%!" label r.Exp.cycles (rel ~base r)
  in
  show "SS 2-way" base;
  show "SS 2-way no-penalty"
    (run ~model:(Models.with_ideal_recovery Models.ss_2way) ~target:Exp.Riscv w);
  show "STRAIGHT 2-way (RE+)"
    (run ~model:Models.straight_2way ~target:Exp.Straight_re w);
  show "SS 4-way" (run ~model:Models.ss_4way ~target:Exp.Riscv w);
  show "SS 4-way no-penalty"
    (run ~model:(Models.with_ideal_recovery Models.ss_4way) ~target:Exp.Riscv w);
  show "STRAIGHT 4-way (RE+)"
    (run ~model:Models.straight_4way ~target:Exp.Straight_re w)

(* ---------- Fig. 14: TAGE ---------- *)

let fig14 () =
  header "Fig. 14: with an 8-component TAGE predictor (CoreMark, norm. to SS)";
  let w = coremark () in
  List.iter
    (fun (ss, straight, label) ->
       let ss_t = Models.with_tage ss in
       let straight_t = Models.with_tage straight in
       let base = run ~model:ss_t ~target:Exp.Riscv w in
       let show l r =
         Printf.printf "%-26s %10d misp=%6d %14.3f\n%!" l r.Exp.cycles
           r.Exp.stats.Engine.branch_mispredicts (rel ~base r)
       in
       Printf.printf "-- %s --\n" label;
       show "SS+TAGE" base;
       show "STRAIGHT(RAW)+TAGE" (run ~model:straight_t ~target:Exp.Straight_raw w);
       show "STRAIGHT(RE+)+TAGE" (run ~model:straight_t ~target:Exp.Straight_re w))
    [ (Models.ss_2way, Models.straight_2way, "2-way");
      (Models.ss_4way, Models.straight_4way, "4-way") ]

(* ---------- Fig. 15: retired instruction mix ---------- *)

let fig15 () =
  header "Fig. 15: retired instruction mix (CoreMark, normalized to SS total)";
  let w = coremark () in
  let categories = [ "Jump+Branch"; "ALU"; "LD"; "ST"; "RMOV"; "NOP" ] in
  let get r cat =
    Option.value ~default:0 (List.assoc_opt cat r.Exp.stats.Engine.mix)
  in
  let ss = run ~model:Models.ss_4way ~target:Exp.Riscv w in
  let raw = run ~model:Models.straight_4way ~target:Exp.Straight_raw w in
  let re = run ~model:Models.straight_4way ~target:Exp.Straight_re w in
  let total_ss = float_of_int ss.Exp.committed in
  Printf.printf "%-12s %10s %14s %14s\n" "category" "SS" "STRAIGHT(RAW)"
    "STRAIGHT(RE+)";
  List.iter
    (fun cat ->
       Printf.printf "%-12s %10.3f %14.3f %14.3f\n"
         cat
         (float_of_int (get ss cat) /. total_ss)
         (float_of_int (get raw cat) /. total_ss)
         (float_of_int (get re cat) /. total_ss))
    categories;
  Printf.printf "%-12s %10.3f %14.3f %14.3f\n" "TOTAL"
    (float_of_int ss.Exp.committed /. total_ss)
    (float_of_int raw.Exp.committed /. total_ss)
    (float_of_int re.Exp.committed /. total_ss)

(* ---------- Fig. 16: cumulative source-distance distribution ---------- *)

let fig16 () =
  header "Fig. 16: cumulative fraction of source operand distances (max dist 1023)";
  let points = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  Printf.printf "%-12s" "distance";
  List.iter (fun d -> Printf.printf " %8d" d) points;
  Printf.printf "\n";
  List.iter
    (fun (w : Workloads.t) ->
       let out =
         Compile.compile (Exp.codegen ~max_dist:1023 Exp.Straight_re)
           w.Workloads.source
       in
       let r =
         Iss.Straight_iss.run
           ~config:{ Iss.Straight_iss.collect_trace = false;
                     collect_dist = true; max_insns = 50_000_000 }
           out.Compile.image
       in
       let hist = r.Iss.Trace.dist_histogram in
       let total = Array.fold_left ( + ) 0 hist in
       let max_used = ref 0 in
       Array.iteri (fun d n -> if n > 0 then max_used := d) hist;
       Printf.printf "%-12s" w.Workloads.name;
       List.iter
         (fun limit ->
            let below = ref 0 in
            for d = 0 to min limit (Array.length hist - 1) do
              below := !below + hist.(d)
            done;
            Printf.printf " %8.3f" (float_of_int !below /. float_of_int total))
         points;
       Printf.printf "   (max distance used: %d)\n%!" !max_used)
    [ coremark (); dhrystone () ]

(* ---------- Section VI-B: max-distance sweep ---------- *)

let sweep_maxdist () =
  header "Section VI-B: sensitivity to the maximum distance (CoreMark, RE+, 4-way)";
  let w = coremark () in
  let base = ref 0 in
  List.iter
    (fun md ->
       let r =
         run ~max_dist:md ~model:Models.straight_4way ~target:Exp.Straight_re w
       in
       if !base = 0 then base := r.Exp.cycles;
       Printf.printf "max distance %5d: cycles=%8d insts=%8d (%+.2f%% cycles vs 1023)\n%!"
         md r.Exp.cycles r.Exp.committed
         (100.0 *. (float_of_int r.Exp.cycles /. float_of_int !base -. 1.0)))
    [ 1023; 127; 63; 31 ]

(* ---------- Fig. 17: relative power ---------- *)

let fig17 () =
  header "Fig. 17: relative power, 2-way cores (normalized per module to SS@1.0x)";
  (* the paper uses a test code on the 2-way RTL designs without mul/div;
     we use the CoreMark kernel (the paper's evaluation workload) *)
  let w = Workloads.coremark ~iterations:1 () in
  let ss = run ~model:Models.ss_2way ~target:Exp.Riscv w in
  let straight = run ~model:Models.straight_2way ~target:Exp.Straight_re w in
  let ss_rep = Power.analyze ~cycles:ss.Exp.cycles ss.Exp.stats.Engine.activity in
  let st_rep =
    Power.analyze ~cycles:straight.Exp.cycles
      straight.Exp.stats.Engine.activity
  in
  Printf.printf "rename/other ratio (SS, paper anchor 5.7%%): %.1f%%\n"
    (100.0 *. ss_rep.Power.rename /. ss_rep.Power.other);
  Printf.printf "%-16s %6s %10s %10s\n" "module" "freq" "SS" "STRAIGHT";
  List.iter
    (fun (row : Power.figure17_row) ->
       Printf.printf "%-16s %5.1fx %10.3f %10.3f\n" row.Power.module_name
         row.Power.freq row.Power.ss row.Power.straight)
    (Power.figure17 ~ss:ss_rep ~straight:st_rep);
  Printf.printf
    "(STRAIGHT regfile/other exceed SS slightly: higher IPC — Section VI-C)\n"

(* ---------- ablation: where does STRAIGHT's advantage come from? ---------- *)

let ablation () =
  header "Ablation: front-end depth vs. recovery mechanism (CoreMark, 4-way)";
  let w = coremark () in
  let base = run ~model:Models.ss_4way ~target:Exp.Riscv w in
  let show label r =
    Printf.printf "%-44s %10d %8.3f\n%!" label r.Exp.cycles (rel ~base r)
  in
  show "SS (8-deep front end, RMT walk recovery)" base;
  let ss_fe6 =
    { Models.ss_4way with Ooo_common.Params.frontend_depth = 6;
      name = "SS-4way-fe6" }
  in
  show "SS + 6-deep front end (walk kept)" (run ~model:ss_fe6 ~target:Exp.Riscv w);
  let straight_fe8 =
    { Models.straight_4way with Ooo_common.Params.frontend_depth = 8;
      name = "STRAIGHT-4way-fe8" }
  in
  show "STRAIGHT RE+ + 8-deep front end (no walk)"
    (run ~model:straight_fe8 ~target:Exp.Straight_re w);
  show "STRAIGHT RE+ (6-deep front end, no walk)"
    (run ~model:Models.straight_4way ~target:Exp.Straight_re w);
  header "Ablation: RE+ contribution (CoreMark, 4-way)";
  let raw = run ~model:Models.straight_4way ~target:Exp.Straight_raw w in
  let re = run ~model:Models.straight_4way ~target:Exp.Straight_re w in
  Printf.printf "RAW retired: %d; RE+ retired: %d (%.1f%% fewer)\n"
    raw.Exp.committed re.Exp.committed
    (100.0 *. (1.0 -. float_of_int re.Exp.committed /. float_of_int raw.Exp.committed));
  (* middle-end optimization levels affect the two architectures
     differently: CSE/LICM lengthen live ranges, which the register-rich
     superscalar absorbs but STRAIGHT pays for in frame relays — the
     back end's localization pass recovers most of it *)
  header "Ablation: IR optimization level (CoreMark, 4-way, cycles)";
  Printf.printf "%-6s %12s %14s\n" "level" "SS" "STRAIGHT RE+";
  List.iter
    (fun (name, opt) ->
       let compile_run model target =
         let image =
           (Compile.compile ~opt (Exp.codegen target) w.Workloads.source)
             .Compile.image
         in
         (Ooo_common.Pipeline.run model image)
           .Ooo_common.Pipeline.stats.Engine.cycles
       in
       Printf.printf "%-6s %12d %14d\n%!" name
         (compile_run Models.ss_4way Exp.Riscv)
         (compile_run Models.straight_4way Exp.Straight_re))
    [ ("O0", Ssa_ir.Passes.O0); ("O1", Ssa_ir.Passes.O1);
      ("O2", Ssa_ir.Passes.O2) ]

(* ---------- window (ROB) scalability ---------- *)

(* The paper's scalability argument (Sections II-B/III-B): STRAIGHT's
   instruction window can grow because recovery cost does not grow with the
   ROB and the register file is a plain queue, while the superscalar's
   walk penalty and physical register pressure grow with it.  We sweep the
   ROB (scaling the physical registers and MAX_RP accordingly) and also
   show the checkpointed-RMT alternative the paper discusses (II-A). *)
let rob_sweep () =
  header "Window scalability: ROB sweep (CoreMark, 4-way, cycles)";
  let w = coremark () in
  Printf.printf "%-8s %12s %12s %14s
" "ROB" "SS" "STRAIGHT RE+" "SS+checkpoints";
  List.iter
    (fun rob ->
       let ss =
         { Models.ss_4way with
           Ooo_common.Params.rob_entries = rob;
           rename = Ooo_common.Params.Rmt { phys_regs = 32 + rob };
           name = Printf.sprintf "SS-4way-rob%d" rob }
       in
       let ckpt = Models.with_checkpoints ~n:8 ss in
       let straight =
         { Models.straight_4way with
           Ooo_common.Params.rob_entries = rob;
           name = Printf.sprintf "STRAIGHT-4way-rob%d" rob }
       in
       let r_ss = run ~model:ss ~target:Exp.Riscv w in
       let r_ck = run ~model:ckpt ~target:Exp.Riscv w in
       let r_st = run ~model:straight ~target:Exp.Straight_re w in
       Printf.printf "%-8d %12d %12d %14d
%!" rob r_ss.Exp.cycles
         r_st.Exp.cycles r_ck.Exp.cycles)
    [ 32; 64; 128; 224; 448 ];
  (* the paper's III-B claim: the SPADD dispatch restriction is negligible *)
  let r = run ~model:Models.straight_4way ~target:Exp.Straight_re w in
  Printf.printf
    "SPADD dispatch-limit stall slots: %d (%.4f%% of cycles) — \
     'negligible because the SPADD interval is very long' (III-B)
"
    r.Exp.stats.Engine.spadd_stall_slots
    (100.0 *. float_of_int r.Exp.stats.Engine.spadd_stall_slots
     /. float_of_int r.Exp.cycles)

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
  let workloads = [ dhrystone (); coremark () ] in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time_engine (model : Ooo_common.Params.t) target (w : Workloads.t) =
    let image =
      (Compile.compile (Exp.codegen target) w.Workloads.source).Compile.image
    in
    let r = Iss.Machine.run ~collect_trace:true image in
    let decode_static = Iss.Machine.static_uop image in
    let checker () =
      Ooo_common.Pipeline.checker ~check:true
        ~max_dist:Ooo_common.Params.straight_max_dist model
        ~retired:r.Iss.Trace.retired
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

let all () =
  table1 (); fig10 (); fig11 (); fig12 (); fig13 (); fig14 (); fig15 ();
  fig16 (); sweep_maxdist (); fig17 (); ablation (); rob_sweep ()

let () =
  let cmds =
    [ ("table1", table1); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
      ("fig13", fig13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
      ("fig17", fig17); ("sweep_maxdist", sweep_maxdist);
      ("ablation", ablation); ("rob_sweep", rob_sweep); ("micro", micro);
      ("all", all) ]
  in
  let json_out = ref "" in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest -> quick := true; parse acc rest
    | "--json" :: out :: rest -> json_out := out; parse acc rest
    | [ "--json" ] ->
      prerr_endline "--json needs an output path"; exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let names = parse [] (Array.to_list Sys.argv |> List.tl) in
  (match names with
   | [] -> if !json_out = "" then all ()
   | names ->
     List.iter
       (fun name ->
          match List.assoc_opt name cmds with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown bench %S; available: %s\n" name
              (String.concat ", " (List.map fst cmds));
            exit 2)
       names);
  if !json_out <> "" then json_suite !json_out
