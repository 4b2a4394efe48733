(* Robustness harness: seeded fault-injection campaigns over the four
   Table-I models, watchdog deadlock detection, and lockstep-checker
   divergence.  The contract under test: every injected fault is either
   absorbed (the run completes and the golden-model checker sees a full,
   exact retirement) or reported as a structured Diag.Error — never an
   uncaught exception, never a hang. *)

module Params = Ooo_common.Params
module Inject = Ooo_common.Inject
module Checker = Ooo_common.Checker
module Engine = Ooo_common.Engine
module Trace = Iss.Trace

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

(* a small workload with branches, calls, loads, stores, and a multiply:
   every fault kind has targets, and 100 runs stay fast *)
let campaign_source = (Workloads.sort ~n:40 ()).Workloads.source

let straight_image = lazy (compile_straight campaign_source)
let riscv_image = lazy (compile_riscv campaign_source)

let all_kinds =
  [ Inject.Flip_prediction; Inject.Corrupt_cache_tag;
    Inject.Spurious_recovery; Inject.Stretch_fu_latency ]

(* One campaign run: returns [Ok faults_injected] when the faults were
   absorbed (the checker validated a full exact retirement) or
   [Error diag] when the simulator reported structured divergence or
   deadlock.  Anything else escapes and fails the test. *)
let campaign_run (model : Params.t) ~seed : (int, Diag.t) result =
  let model = Params.with_faults (Inject.plan ~period:200 ~kinds:all_kinds seed) model in
  let image =
    match model.Params.rename with
    | Params.Rp -> straight_image
    | Params.Rmt _ | Params.Rmt_checkpoint _ -> riscv_image
  in
  try
    let r = Ooo_common.Pipeline.run model (Lazy.force image) in
    Ok r.Ooo_common.Pipeline.stats.Engine.faults_injected
  with Diag.Error d -> Error d

let test_fault_campaign () =
  let models =
    [ Params.ss_2way; Params.straight_2way; Params.ss_4way;
      Params.straight_4way ]
  in
  let runs = ref 0 and absorbed = ref 0 and diagnosed = ref 0 in
  let faults = ref 0 in
  List.iter
    (fun model ->
       for seed = 1 to 25 do
         incr runs;
         match campaign_run model ~seed with
         | Ok n -> incr absorbed; faults := !faults + n
         | Error _ -> incr diagnosed
       done)
    models;
  Alcotest.(check int) "100-run campaign" 100 !runs;
  Alcotest.(check int) "every run absorbed or diagnosed" !runs
    (!absorbed + !diagnosed);
  (* the campaign must actually inject: an idle fault plan proves nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "faults were injected (%d)" !faults)
    true (!faults > 100);
  (* these fault kinds perturb timing, never architectural state, so the
     lockstep checker should absorb every run *)
  Alcotest.(check int) "timing faults are absorbed" 0 !diagnosed

let test_campaign_determinism () =
  let r1 = campaign_run Params.straight_4way ~seed:11 in
  let r2 = campaign_run Params.straight_4way ~seed:11 in
  (match r1, r2 with
   | Ok f1, Ok f2 ->
     Alcotest.(check int) "same seed, same fault count" f1 f2
   | _ -> Alcotest.fail "seeded campaign run did not complete")

(* ---------- watchdog ---------- *)

let test_watchdog_deadlock () =
  (* a scheduler with zero entries can never dispatch: no commit ever
     happens and the forward-progress watchdog must trip with a
     structured snapshot instead of hanging *)
  let model =
    { Params.straight_2way with Params.scheduler_entries = 0; name = "wedged" }
  in
  match Ooo_common.Pipeline.run model (Lazy.force straight_image) with
  | _ -> Alcotest.fail "deadlocked configuration completed"
  | exception Diag.Error d ->
    Alcotest.(check string) "deadlock code" "SIM_DEADLOCK"
      (Diag.code_name d.Diag.code);
    Alcotest.(check int) "deadlock exit code" 6 (Diag.exit_code d.Diag.code);
    let ctx k = List.assoc_opt k d.Diag.context in
    Alcotest.(check (option string)) "no forward progress"
      (Some "no-forward-progress") (ctx "reason");
    (* the snapshot names the stuck instruction and the queue occupancies *)
    Alcotest.(check bool) "names the stuck instruction" true
      (ctx "head_pc" <> None && ctx "head_fu" <> None);
    List.iter
      (fun k ->
         Alcotest.(check bool) (k ^ " present") true (ctx k <> None))
      [ "rob_occupancy"; "iq_occupancy"; "ldq_occupancy"; "stq_occupancy";
        "frontend_occupancy"; "fetch_mode"; "last_commits" ]

(* ---------- checker divergence ---------- *)

let test_checker_divergence () =
  (* feed the engine a tampered stream: the second uop claims the pc
     after the one the golden run went to, and the checker must report
     the commit stream's divergence at that commit *)
  let image = Lazy.force straight_image in
  let r =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.collect_trace = true; collect_dist = false;
                max_insns = 10_000_000 }
      image
  in
  let tampered = Array.copy r.Trace.trace in
  tampered.(1) <- { tampered.(1) with Trace.pc = tampered.(1).Trace.pc + 4 };
  let checker =
    Checker.create ~rename:Params.Rp ~retired:r.Trace.retired ()
  in
  match
    Engine.run Params.straight_2way
      ~window:(Ooo_common.Window.of_array tampered)
      ~decode_static:(Iss.Machine.static_uop image) ~checker ()
  with
  | _ -> Alcotest.fail "checker accepted a divergent golden trace"
  | exception Diag.Error d ->
    Alcotest.(check string) "divergence code" "CHECKER_DIVERGENCE"
      (Diag.code_name d.Diag.code);
    Alcotest.(check int) "divergence exit code" 7 (Diag.exit_code d.Diag.code);
    Alcotest.(check (option string)) "pc-lockstep invariant"
      (Some "pc-lockstep")
      (List.assoc_opt "invariant" d.Diag.context);
    Alcotest.(check (option string)) "at the tampered commit" (Some "1")
      (List.assoc_opt "trace_idx" d.Diag.context)

let test_checker_golden_lockstep () =
  (* the first commit has no predecessor to continue from, so only the
     comparison with the golden entry can reject it: a golden entry that
     differs from the committed uop in pc, or in fu class alone, must be
     reported at trace index 0 *)
  let u =
    { Trace.placeholder with Trace.pc = 0x1000; fu = Trace.FU_alu;
                             has_dest = true }
  in
  let expect name invariant golden =
    let checker = Checker.create ~rename:Params.Rp ~retired:2 () in
    match
      Checker.on_commit checker ~cycle:1 ~seq:0 ~trace_idx:0
        ~wrong_path:false ~free_regs:0 ~golden u
    with
    | () -> Alcotest.failf "%s: checker accepted the commit" name
    | exception Diag.Error d ->
      Alcotest.(check string) (name ^ ": code") "CHECKER_DIVERGENCE"
        (Diag.code_name d.Diag.code);
      Alcotest.(check (option string)) (name ^ ": invariant")
        (Some invariant)
        (List.assoc_opt "invariant" d.Diag.context);
      Alcotest.(check (option string)) (name ^ ": trace_idx") (Some "0")
        (List.assoc_opt "trace_idx" d.Diag.context)
  in
  expect "pc differs" "pc-lockstep" { u with Trace.pc = 0x1004 };
  expect "fu differs" "fu-lockstep" { u with Trace.fu = Trace.FU_load };
  (* and the golden entry equal to the committed uop is accepted *)
  let checker = Checker.create ~rename:Params.Rp ~retired:2 () in
  Checker.on_commit checker ~cycle:1 ~seq:0 ~trace_idx:0 ~wrong_path:false
    ~free_regs:0 ~golden:u u;
  Alcotest.(check int) "matching commit checked" 1
    (Checker.commits_checked checker)

(* ---------- restore then re-inject ---------- *)

let test_restore_then_reinject () =
  (* checkpoint a faulted run mid-flight, restore, and let the plan keep
     firing: the injection cursor travels with the snapshot, so faults
     land after the restore point too and the recovered run's outcome
     (absorbed, with the same fault count) matches the uninterrupted
     one *)
  let module Sim = Snapshot.Sim in
  let model =
    Params.with_faults (Inject.plan ~period:120 ~kinds:all_kinds 3)
      Params.straight_2way
  in
  let spec =
    Sim.spec ~model ~target:Straight_core.Experiment.Straight_re
      (Workloads.sort ~n:40 ())
  in
  let baseline =
    match Sim.run spec with
    | Sim.Completed r -> r
    | Sim.Stopped _ -> assert false
  in
  let total = baseline.Straight_core.Experiment.stats.Engine.faults_injected in
  Alcotest.(check bool) "plan injects enough to straddle the save" true
    (total >= 4);
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "straight-reinject.%d.snap" (Unix.getpid ()))
  in
  let stop = baseline.Straight_core.Experiment.cycles / 2 in
  (match Sim.run ~checkpoint_path:path ~stop_at:stop spec with
   | Sim.Stopped _ -> ()
   | Sim.Completed _ -> Alcotest.fail "run completed before the kill point");
  let session = Sim.restore path in
  Sys.remove path;
  let mid = Sim.cycle session in
  while not (Sim.finished session) do Sim.step session done;
  let r = Sim.finish session in
  let after = r.Straight_core.Experiment.stats.Engine.faults_injected in
  Alcotest.(check int) "restored run replays the full fault schedule"
    total after;
  Alcotest.(check bool) "faults fired before the restore point" true
    (mid > 0 && total > 0);
  Alcotest.(check bool) "stats identical to the uninterrupted run" true
    (baseline.Straight_core.Experiment.stats
     = r.Straight_core.Experiment.stats);
  Alcotest.(check string) "output identical"
    baseline.Straight_core.Experiment.output
    r.Straight_core.Experiment.output

(* ---------- pool shutdown ---------- *)

let test_pool_sigterm_cleanup () =
  (* SIGTERM mid-sweep: Pool.run must kill and reap every worker (no
     orphans), fire on_interrupt (the temp-file sweep hook), and raise
     Interrupted — with partial results already delivered still valid *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "straight-pool-test.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pidfile j = Filename.concat dir (Printf.sprintf "worker-%d.pid" j) in
  (* worker: record the child pid, pretend to checkpoint (a torn temp
     file), then hang until killed *)
  let worker j =
    let oc = open_out (pidfile j) in
    Printf.fprintf oc "%d\n" (Unix.getpid ());
    close_out oc;
    let oc = open_out (Filename.concat dir
                         (Printf.sprintf "ckpt-%d.snap.tmp.%d" j
                            (Unix.getpid ()))) in
    close_out oc;
    Unix.sleepf 60.;
    "never"
  in
  (* the killer: a helper child that SIGTERMs us shortly after start *)
  let me = Unix.getpid () in
  flush stdout; flush stderr;
  let killer =
    match Unix.fork () with
    | 0 ->
      Unix.sleepf 0.5;
      (try Unix.kill me Sys.sigterm with _ -> ());
      Stdlib.exit 0
    | pid -> pid
  in
  let interrupted_hook = ref false in
  let outcome =
    try
      Sweep.Pool.run ~jobs:4 ~worker ~procs:2 ~timeout:120. ~retries:0
        ~on_interrupt:(fun () ->
            interrupted_hook := true;
            (* the sweep driver's hook: sweep torn temp files *)
            Array.iter
              (fun f ->
                 if String.length f > 5 && String.sub f 0 5 = "ckpt-" then
                   try Sys.remove (Filename.concat dir f)
                   with Sys_error _ -> ())
              (Sys.readdir dir))
        ~on_result:(fun _ _ -> ()) ();
      `Finished
    with Sweep.Pool.Interrupted s -> `Interrupted s
  in
  ignore (Unix.waitpid [] killer);
  (match outcome with
   | `Interrupted s ->
     Alcotest.(check bool) "raised Interrupted with the signal" true
       (s = Sys.sigterm)
   | `Finished -> Alcotest.fail "pool survived SIGTERM");
  Alcotest.(check bool) "on_interrupt hook ran" true !interrupted_hook;
  (* every recorded worker pid must be dead AND reaped: kill 0 raises
     ESRCH once the zombie is gone *)
  let still_alive = ref [] in
  Array.iter
    (fun f ->
       if Filename.check_suffix f ".pid" then begin
         let p = Filename.concat dir f in
         let pid =
           In_channel.with_open_text p (fun ic ->
               int_of_string (String.trim (Option.get (In_channel.input_line ic))))
         in
         (match Unix.kill pid 0 with
          | () -> still_alive := pid :: !still_alive
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ());
         Sys.remove p
       end)
    (Sys.readdir dir);
  Alcotest.(check (list int)) "no orphan worker processes" [] !still_alive;
  (* the interrupt hook swept the torn checkpoint temp files *)
  let strays =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "ckpt-")
  in
  Alcotest.(check (list string)) "no stray checkpoint temp files" [] strays;
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with _ -> ());
  (* the pool restored the previous handlers on the way out *)
  let prev = Sys.signal Sys.sigterm Sys.Signal_default in
  Alcotest.(check bool) "SIGTERM handler restored to default" true
    (prev = Sys.Signal_default)

(* ---------- exit-code scheme ---------- *)

let test_exit_codes_distinct () =
  (* one representative per failure class a driver can exit with *)
  let codes =
    [ Diag.Config_error; Diag.Parse_error; Diag.Exec_error;
      Diag.Fuel_exhausted; Diag.Sim_deadlock; Diag.Checker_divergence ]
  in
  let exits = List.map Diag.exit_code codes in
  Alcotest.(check int) "distinct exit codes"
    (List.length exits)
    (List.length (List.sort_uniq compare exits));
  List.iter
    (fun e -> Alcotest.(check bool) "nonzero, non-1 exit" true (e >= 2))
    exits

let suite =
  [ ("fault campaign (100 seeded runs, 4 models)", `Slow, test_fault_campaign);
    ("campaign determinism", `Quick, test_campaign_determinism);
    ("watchdog: deadlock snapshot", `Quick, test_watchdog_deadlock);
    ("restore then re-inject (fault schedule survives the snapshot)",
     `Slow, test_restore_then_reinject);
    ("pool: SIGTERM reaps workers and sweeps temp files", `Quick,
     test_pool_sigterm_cleanup);
    ("checker: divergence reported", `Quick, test_checker_divergence);
    ("checker: golden pc/fu mismatch reported", `Quick,
     test_checker_golden_lockstep);
    ("exit codes distinct", `Quick, test_exit_codes_distinct) ]

let () = Alcotest.run "robustness" [ ("robustness", suite) ]
