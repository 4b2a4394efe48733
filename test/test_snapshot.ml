(* Recovery-determinism campaign for the checkpoint subsystem.

   The contract under test (DESIGN.md §11): save the engine at an
   arbitrary cycle boundary, kill the process, restore from the file
   alone, run to completion — and every observable (cycle count, CPI
   stack, activity counters, fault counts, program output, distance
   histogram) is bit-identical to the uninterrupted run.  Kills are
   simulated with [Sim.drive ~stop_at] (checkpoint + abandon, exactly
   what a SIGKILL leaves behind); restore points are drawn from a seeded
   PRNG so the campaign covers early, mid and late cycles across both
   pipelines.  The negative half: corrupt, truncated, version-bumped,
   magic-smashed and spec-mismatched files must all be rejected as
   structured [Snapshot_error] diagnostics, never accepted and never an
   uncaught exception. *)

module Params = Ooo_common.Params
module Engine = Ooo_common.Engine
module Inject = Ooo_common.Inject
module Exp = Straight_core.Experiment
module Sim = Snapshot.Sim

let tmpdir =
  lazy
    (let d =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "straight-snap-test.%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     at_exit (fun () ->
         (try
            Array.iter
              (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
              (Sys.readdir d);
            Unix.rmdir d
          with _ -> ()));
     d)

let tmp name = Filename.concat (Lazy.force tmpdir) name

(* deterministic stop-cycle generator (no global Random state) *)
let lcg seed =
  let s = ref (seed land 0x3fffffff) in
  fun () ->
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    !s

(* every stat the engine exposes must survive the round trip *)
let check_result_equal label (a : Exp.result) (b : Exp.result) =
  Alcotest.(check int) (label ^ ": cycles") a.Exp.cycles b.Exp.cycles;
  Alcotest.(check int) (label ^ ": committed") a.Exp.committed b.Exp.committed;
  Alcotest.(check string) (label ^ ": output") a.Exp.output b.Exp.output;
  Alcotest.(check bool) (label ^ ": full stats record") true
    (a.Exp.stats = b.Exp.stats);
  Alcotest.(check bool) (label ^ ": cpi stack") true
    (a.Exp.stats.Engine.cpi_stack = b.Exp.stats.Engine.cpi_stack);
  Alcotest.(check bool) (label ^ ": dist histogram") true
    (a.Exp.dist_histogram = b.Exp.dist_histogram)

(* save at [stop], abandon, restore from the file alone, finish *)
let kill_and_recover label spec ~stop =
  let fname =
    String.map (fun c -> if c = '/' || c = ' ' then '_' else c) label
  in
  let path = tmp (fname ^ ".snap") in
  (match Sim.run ~checkpoint_path:path ~stop_at:stop spec with
   | Sim.Stopped { cycle; path = p } ->
     Alcotest.(check string) (label ^ ": checkpoint path") path p;
     Alcotest.(check bool) (label ^ ": stopped at/after stop_at") true
       (cycle >= stop)
   | Sim.Completed _ ->
     Alcotest.fail (label ^ ": run completed before the simulated kill"));
  let r = Sim.run_restored path in
  Sys.remove path;
  r

let campaign_points = 3  (* restore points per (workload, model, target) *)

let test_recovery_determinism () =
  let grid =
    [ ("iota", Workloads.iota ~n:40 ());
      ("sort", Workloads.sort ~n:25 ()) ]
  and configs =
    [ ("st2-re", Params.straight_2way, Exp.Straight_re);
      ("st2-raw", Params.straight_2way, Exp.Straight_raw);
      ("ss2", Params.ss_2way, Exp.Riscv) ]
  in
  List.iter
    (fun (wname, w) ->
       List.iter
         (fun (cname, model, target) ->
            let spec = Sim.spec ~model ~target w in
            let baseline =
              match Sim.run spec with
              | Sim.Completed r -> r
              | Sim.Stopped _ -> assert false
            in
            let next = lcg (Hashtbl.hash (wname, cname)) in
            for k = 1 to campaign_points do
              let stop = 1 + (next () mod (baseline.Exp.cycles - 2)) in
              let label = Printf.sprintf "%s/%s #%d@%d" wname cname k stop in
              let r = kill_and_recover label spec ~stop in
              check_result_equal label baseline r
            done)
         configs)
    grid

let fault_kinds =
  [ Inject.Flip_prediction; Inject.Corrupt_cache_tag;
    Inject.Spurious_recovery; Inject.Stretch_fu_latency ]

let test_recovery_with_faults () =
  (* faults fire both before and after the restore point: the injection
     cursor is part of the snapshot, so the restored run must replay the
     exact same fault schedule *)
  let model =
    Params.with_faults (Inject.plan ~period:150 ~kinds:fault_kinds 11)
      Params.straight_4way
  in
  let spec = Sim.spec ~model ~target:Exp.Straight_re (Workloads.sort ~n:40 ()) in
  let baseline =
    match Sim.run spec with
    | Sim.Completed r -> r
    | Sim.Stopped _ -> assert false
  in
  Alcotest.(check bool) "faults actually fired" true
    (baseline.Exp.stats.Engine.faults_injected > 2);
  List.iter
    (fun frac ->
       let stop = max 1 (baseline.Exp.cycles * frac / 100) in
       let label = Printf.sprintf "faulted@%d%%" frac in
       let r = kill_and_recover label spec ~stop in
       check_result_equal label baseline r;
       Alcotest.(check int) (label ^ ": fault count")
         baseline.Exp.stats.Engine.faults_injected
         r.Exp.stats.Engine.faults_injected)
    [ 10; 50; 90 ]

let test_periodic_checkpoints () =
  (* -checkpoint-every leaves a usable file behind; resuming from the
     last periodic checkpoint reproduces the run *)
  let spec =
    Sim.spec ~model:Params.ss_2way ~target:Exp.Riscv (Workloads.fib ~n:12 ())
  in
  let path = tmp "periodic.snap" in
  let baseline =
    match Sim.run ~checkpoint_every:500 ~checkpoint_path:path spec with
    | Sim.Completed r -> r
    | Sim.Stopped _ -> assert false
  in
  Alcotest.(check bool) "periodic checkpoint exists" true
    (Sys.file_exists path);
  let r = Sim.run_restored path in
  Sys.remove path;
  check_result_equal "periodic" baseline r

(* ---------- rejection of bad files ---------- *)

let read_bytes path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.of_string (In_channel.input_all ic))

let write_bytes path b =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

let expect_snapshot_error label (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail (label ^ ": bad snapshot was accepted")
  | exception Diag.Error d ->
    Alcotest.(check string) (label ^ ": code") "SNAPSHOT_ERROR"
      (Diag.code_name d.Diag.code);
    Alcotest.(check int) (label ^ ": exit code") 9
      (Diag.exit_code d.Diag.code);
    Alcotest.(check bool) (label ^ ": names the file") true
      (List.mem_assoc "snapshot" d.Diag.context)

let good_snapshot =
  lazy
    (let spec =
       Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re
         (Workloads.iota ~n:30 ())
     in
     let path = tmp "good.snap" in
     (match Sim.run ~checkpoint_path:path ~stop_at:200 spec with
      | Sim.Stopped _ -> ()
      | Sim.Completed _ -> Alcotest.fail "seed snapshot run too short");
     (spec, path))

let with_mutant name mutate k =
  let _, good = Lazy.force good_snapshot in
  let b = read_bytes good in
  let path = tmp name in
  mutate b;
  write_bytes path b;
  k path;
  Sys.remove path

let test_reject_corrupt () =
  with_mutant "corrupt.snap"
    (fun b ->
       let off = Bytes.length b - 40 in
       Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff)))
    (fun path ->
       expect_snapshot_error "flipped payload byte" (fun () ->
           ignore (Sim.restore path)))

let test_reject_truncated () =
  with_mutant "short.snap" ignore (fun path ->
      let b = read_bytes path in
      write_bytes path (Bytes.sub b 0 (Bytes.length b / 2));
      expect_snapshot_error "truncated payload" (fun () ->
          ignore (Sim.restore path));
      write_bytes path (Bytes.sub b 0 10);
      expect_snapshot_error "truncated header" (fun () ->
          ignore (Sim.restore path)))

let test_reject_bad_magic () =
  with_mutant "magic.snap"
    (fun b -> Bytes.blit_string "NOTASNAP" 0 b 0 8)
    (fun path ->
       expect_snapshot_error "bad magic" (fun () ->
           ignore (Sim.restore path)))

let test_reject_bad_version () =
  with_mutant "version.snap"
    (fun b -> Bytes.set b 8 (Char.chr (Snapshot.File.version + 1)))
    (fun path ->
       expect_snapshot_error "future container version" (fun () ->
           ignore (Sim.restore path)))

let test_reject_missing () =
  expect_snapshot_error "missing file" (fun () ->
      ignore (Sim.restore (tmp "does-not-exist.snap")))

let test_reject_spec_mismatch () =
  (* [resume] (the sweep's entry point) must refuse a checkpoint taken
     under any other grid point *)
  let spec, good = Lazy.force good_snapshot in
  let wrong_model = { spec with Sim.params = Params.straight_4way } in
  expect_snapshot_error "model mismatch" (fun () ->
      ignore (Sim.resume wrong_model good));
  let wrong_workload = { spec with Sim.workload = Workloads.iota ~n:31 () } in
  expect_snapshot_error "workload mismatch" (fun () ->
      ignore (Sim.resume wrong_workload good));
  let wrong_check = { spec with Sim.check = not spec.Sim.check } in
  expect_snapshot_error "checker-arming mismatch" (fun () ->
      ignore (Sim.resume wrong_check good));
  (* the self-contained restore still accepts it *)
  ignore (Sim.restore good : Sim.session)

let test_flags_need_path () =
  let spec =
    Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re
      (Workloads.iota ~n:10 ())
  in
  List.iter
    (fun f ->
       match f () with
       | (_ : Sim.outcome) ->
         Alcotest.fail "checkpoint flag without a path was accepted"
       | exception Diag.Error d ->
         Alcotest.(check string) "config error" "CONFIG_ERROR"
           (Diag.code_name d.Diag.code))
    [ (fun () -> Sim.run ~checkpoint_every:100 spec);
      (fun () -> Sim.run ~stop_at:100 spec) ]

(* a STRAIGHT image only runs on the RP core and an RV32IM image only on
   a renaming core: any other pairing is refused when the spec is built,
   before anything is compiled or simulated *)
let test_spec_rejects_isa_core_mismatch () =
  let w = Workloads.iota ~n:10 () in
  let ss_ckpt = Params.with_checkpoints ~n:8 Params.ss_4way in
  List.iter
    (fun (model, target) ->
       let label =
         Printf.sprintf "%s on %s" (Exp.target_label target)
           model.Params.name
       in
       match Sim.spec ~model ~target w with
       | (_ : Sim.spec) -> Alcotest.failf "%s: mismatch accepted" label
       | exception Diag.Error d ->
         Alcotest.(check string) (label ^ ": config error") "CONFIG_ERROR"
           (Diag.code_name d.Diag.code))
    [ (Params.straight_2way, Exp.Riscv);
      (Params.ss_2way, Exp.Straight_re);
      (Params.ss_4way, Exp.Straight_raw);
      (ss_ckpt, Exp.Straight_re) ];
  List.iter
    (fun (model, target) ->
       ignore (Sim.spec ~model ~target w : Sim.spec))
    [ (Params.ss_2way, Exp.Riscv); (Params.ss_4way, Exp.Riscv);
      (Params.straight_2way, Exp.Straight_re);
      (Params.straight_4way, Exp.Straight_raw); (ss_ckpt, Exp.Riscv) ]

(* ---------- the sweep's resume path ---------- *)

let sweep_point () =
  { Sweep.Grid.params = Params.straight_2way;
    target = Exp.Straight_re;
    workload = Workloads.iota ~n:40 ();
    machine = Sweep.Grid.Straight_re;
    width = 2;
    sample = None }

let scrub (r : Sweep.Runner.record) = { r with Sweep.Runner.host_seconds = 0. }

let test_sweep_resume_identical () =
  let pt = sweep_point () in
  let clean = Sweep.Runner.run pt in
  (* simulate the kill: leave a mid-run checkpoint at the keyed path *)
  let path = tmp "sweep-resume.snap" in
  let spec =
    Sim.spec ~model:pt.Sweep.Grid.params ~target:pt.Sweep.Grid.target
      pt.Sweep.Grid.workload
  in
  (match
     Sim.run ~checkpoint_path:path ~stop_at:(clean.Sweep.Runner.cycles / 2) spec
   with
   | Sim.Stopped _ -> ()
   | Sim.Completed _ -> Alcotest.fail "point too short to interrupt");
  let resumed = Sweep.Runner.run ~checkpoint:path pt in
  Alcotest.(check bool)
    "resumed record identical to a clean run's (modulo host_seconds)" true
    (scrub clean = scrub resumed)

let test_sweep_unusable_checkpoint_restarts () =
  let pt = sweep_point () in
  let clean = Sweep.Runner.run pt in
  let path = tmp "sweep-garbage.snap" in
  write_bytes path (Bytes.of_string "definitely not a snapshot");
  let recovered = Sweep.Runner.run ~checkpoint:path pt in
  Alcotest.(check bool) "garbage checkpoint -> clean restart, same record"
    true
    (scrub clean = scrub recovered);
  Alcotest.(check bool) "garbage checkpoint deleted" true
    (not (Sys.file_exists path))

(* Every store writes through [File.write_atomic]: a writer that raises
   or a rename that fails must leave the destination as it was and no
   temp file behind.  [File.mkdir_p] creates every missing level. *)
let test_atomic_write_failures () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let path = tmp "atomic.txt" in
  Snapshot.File.write_atomic path (fun oc -> output_string oc "first");
  (match
     Snapshot.File.write_atomic path (fun oc ->
         output_string oc "torn";
         failwith "writer died")
   with
   | () -> Alcotest.fail "the writer's exception must propagate"
   | exception Failure _ -> ());
  Alcotest.(check string) "destination unchanged" "first" (read path);
  let dir = tmp "atomic-dir" in
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  Snapshot.File.mkdir_p nested;
  Snapshot.File.mkdir_p nested;
  Alcotest.(check bool) "nested directories created" true
    (Sys.is_directory nested);
  (* renaming a file over a non-empty directory fails (EISDIR) *)
  (match
     Snapshot.File.write_atomic (Filename.concat dir "a") (fun oc ->
         output_string oc "x")
   with
   | () -> Alcotest.fail "a rename over a directory must fail"
   | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "no temp file next to the directory"
    [ "a" ] (Array.to_list (Sys.readdir dir));
  Unix.rmdir nested;
  Unix.rmdir (Filename.dirname nested);
  Unix.rmdir dir;
  let contains_tmp f =
    let marker = ".tmp." in
    let n = String.length marker in
    let rec go i =
      i + n <= String.length f && (String.sub f i n = marker || go (i + 1))
    in
    go 0
  in
  Alcotest.(check (list string)) "no temp file left behind" []
    (List.filter contains_tmp
       (Array.to_list (Sys.readdir (Lazy.force tmpdir))))

let suite =
  [ ("recovery determinism (seeded campaign, both pipelines)", `Slow,
     test_recovery_determinism);
    ("recovery with faults before and after the restore point", `Slow,
     test_recovery_with_faults);
    ("periodic checkpoints are restorable", `Quick,
     test_periodic_checkpoints);
    ("reject: corrupt payload (CRC)", `Quick, test_reject_corrupt);
    ("reject: truncated file", `Quick, test_reject_truncated);
    ("reject: bad magic", `Quick, test_reject_bad_magic);
    ("reject: future version", `Quick, test_reject_bad_version);
    ("reject: missing file", `Quick, test_reject_missing);
    ("reject: resume under a different spec", `Quick,
     test_reject_spec_mismatch);
    ("checkpoint flags require a path", `Quick, test_flags_need_path);
    ("spec: ISA/core mismatch is a config error", `Quick,
     test_spec_rejects_isa_core_mismatch);
    ("sweep: resumed point = clean point", `Slow,
     test_sweep_resume_identical);
    ("sweep: unusable checkpoint restarts clean", `Quick,
     test_sweep_unusable_checkpoint_restarts);
    ("atomic write: failures leave no temp file", `Quick,
     test_atomic_write_failures) ]

let () = Alcotest.run "snapshot" [ ("snapshot", suite) ]
