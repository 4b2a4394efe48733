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

let completed = function
  | Sim.Completed r -> r
  | Sim.Stopped _ -> Alcotest.fail "run stopped without a stop cycle"

(* save at [stop], abandon, restore from the file alone, finish; also
   returns how many wrong-path uops the restored engine holds in flight
   (the image stores each by its pc alone) *)
let kill_and_recover label spec ~stop =
  let fname =
    String.map (fun c -> if c = '/' || c = ' ' then '_' else c) label
  in
  let path = tmp (fname ^ ".snap") in
  (match
     Sim.drive ~checkpoint_path:path ~stop_at:stop (lazy (Sim.start spec))
   with
   | Sim.Stopped { cycle; path = p } ->
     Alcotest.(check string) (label ^ ": checkpoint path") path p;
     Alcotest.(check bool) (label ^ ": stopped at/after stop_at") true
       (cycle >= stop)
   | Sim.Completed _ ->
     Alcotest.fail (label ^ ": run completed before the simulated kill"));
  let s = Sim.restore path in
  let wrong_path = Engine.wrong_path_inflight (Sim.engine s) in
  Sys.remove path;
  (completed (Sim.drive (Lazy.from_val s)), wrong_path)

let campaign_points = 3  (* restore points per (workload, model, target) *)

(* The first cycle at or after [from] when wrong-path uops are in
   flight, if any: one more restore point, so that every configuration
   restores some in-flight wrong path. *)
let wrong_path_cycle spec ~from =
  let s = Sim.start spec in
  let rec go () =
    if Sim.finished s then None
    else if Sim.cycle s >= from
         && Engine.wrong_path_inflight (Sim.engine s) > 0
    then Some (Sim.cycle s)
    else (Sim.step s; go ())
  in
  go ()

let test_recovery_determinism () =
  let grid =
    [ ("iota", Workloads.iota ~n:40 ());
      ("sort", Workloads.sort ~n:25 ()) ]
  and configs =
    [ ("st2-re", Params.straight_2way, Exp.Straight_re);
      ("st2-raw", Params.straight_2way, Exp.Straight_raw);
      ("ss2", Params.ss_2way, Exp.Riscv) ]
  in
  (* restore points with wrong-path uops in flight, per ISA *)
  let wrong_path_points = Hashtbl.create 2 in
  List.iter
    (fun (wname, w) ->
       List.iter
         (fun (cname, model, target) ->
            let spec = Sim.spec ~model ~target w in
            let baseline =
              match Sim.drive (lazy (Sim.start spec)) with
              | Sim.Completed r -> r
              | Sim.Stopped _ -> assert false
            in
            let next = lcg (Hashtbl.hash (wname, cname)) in
            let seeded =
              List.init campaign_points (fun _ ->
                  1 + (next () mod (baseline.Exp.cycles - 2)))
            in
            let stops =
              match wrong_path_cycle spec ~from:(List.hd seeded) with
              | Some c when c > 0 -> seeded @ [ c ]
              | _ -> seeded
            in
            List.iteri
              (fun k stop ->
                 let label =
                   Printf.sprintf "%s/%s #%d@%d" wname cname (k + 1) stop
                 in
                 let r, wrong_path = kill_and_recover label spec ~stop in
                 check_result_equal label baseline r;
                 if wrong_path > 0 then
                   Hashtbl.replace wrong_path_points (target = Exp.Riscv) ())
              stops)
         configs)
    grid;
  List.iter
    (fun (riscv, isa) ->
       Alcotest.(check bool)
         (isa ^ ": some restore point has wrong-path uops in flight") true
         (Hashtbl.mem wrong_path_points riscv))
    [ (false, "STRAIGHT"); (true, "RV32IM") ]

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
    match Sim.drive (lazy (Sim.start spec)) with
    | Sim.Completed r -> r
    | Sim.Stopped _ -> assert false
  in
  Alcotest.(check bool) "faults actually fired" true
    (baseline.Exp.stats.Engine.faults_injected > 2);
  List.iter
    (fun frac ->
       let stop = max 1 (baseline.Exp.cycles * frac / 100) in
       let label = Printf.sprintf "faulted@%d%%" frac in
       let r, _ = kill_and_recover label spec ~stop in
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
    match
      Sim.drive ~checkpoint_every:500 ~checkpoint_path:path
        (lazy (Sim.start spec))
    with
    | Sim.Completed r -> r
    | Sim.Stopped _ -> assert false
  in
  Alcotest.(check bool) "periodic checkpoint exists" true
    (Sys.file_exists path);
  let r = completed (Sim.drive (lazy (Sim.restore path))) in
  Sys.remove path;
  check_result_equal "periodic" baseline r

(* ---------- rejection of bad files ---------- *)

let read_bytes path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.of_string (In_channel.input_all ic))

let write_bytes path b =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

(* [because], when given, must occur in the reason *)
let expect_snapshot_error ?because label (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail (label ^ ": bad snapshot was accepted")
  | exception Diag.Error d ->
    Alcotest.(check string) (label ^ ": code") "SNAPSHOT_ERROR"
      (Diag.code_name d.Diag.code);
    Alcotest.(check int) (label ^ ": exit code") 9
      (Diag.exit_code d.Diag.code);
    Alcotest.(check bool) (label ^ ": names the file") true
      (List.mem_assoc "snapshot" d.Diag.context);
    Option.iter
      (fun because ->
         let reason = List.assoc "reason" d.Diag.context in
         let n = String.length because in
         let rec at i =
           i + n <= String.length reason
           && (String.sub reason i n = because || at (i + 1))
         in
         Alcotest.(check bool)
           (Printf.sprintf "%s: %S names %S" label reason because)
           true (at 0))
      because

let good_snapshot =
  lazy
    (let spec =
       Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re
         (Workloads.iota ~n:30 ())
     in
     let path = tmp "good.snap" in
     (match
        Sim.drive ~checkpoint_path:path ~stop_at:200 (lazy (Sim.start spec))
      with
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
  List.iter
    (fun (label, v) ->
       with_mutant "version.snap"
         (fun b -> Bytes.set b 8 (Char.chr v))
         (fun path ->
            expect_snapshot_error label (fun () -> ignore (Sim.restore path))))
    [ ("future container version", Snapshot.File.version + 1);
      ("previous container version", Snapshot.File.version - 1) ]

(* a current container around an engine image of the previous version
   (2, whose wrong-path uops were stored whole): the version varint
   leads the payload *)
let test_reject_old_engine_image () =
  let _, good = Lazy.force good_snapshot in
  let m, r = Snapshot.File.load good in
  let payload =
    Bytes.of_string (String.sub r.Bin.data r.Bin.pos (Bin.remaining r))
  in
  Alcotest.(check int) "payload leads with engine version 3" 3
    (Char.code (Bytes.get payload 0));
  Bytes.set payload 0 '\002';
  let path = tmp "engine-v2.snap" in
  Snapshot.File.save path m ~payload:(Bytes.to_string payload);
  expect_snapshot_error "engine image version 2" (fun () ->
      ignore (Sim.restore path));
  Sys.remove path

(* The byte span of an engine image's window-capacity varint and its
   value, read in [Engine.save]'s order: version, trace length, next
   seq, cycle, the done flag, 15 counters, three int arrays, the fetch
   mode and the RMT. *)
let win_cap_span (payload : string) =
  let r = Bin.reader payload in
  for _ = 1 to 4 do ignore (Bin.r_int r) done;
  ignore (Bin.r_bool r);
  for _ = 1 to 15 do ignore (Bin.r_int r) done;
  for _ = 1 to 3 do ignore (Bin.r_int_array r) done;
  (match Bin.r_int r with 0 | 1 -> ignore (Bin.r_int r) | _ -> ());
  ignore (Bin.r_int_array r);
  let start = r.Bin.pos in
  let cap = Bin.r_int r in
  (start, r.Bin.pos, cap)

(* The window-capacity varint sizes nothing on restore: an image whose
   capacity was forged to 2^18 or 2^61 (CRC recomputed) restores to the
   unforged image's result, and the 2^18 one allocates no more than the
   unforged restore (each window record is some 30 words: 2^18 of them
   would be over 60 MB). *)
let test_forged_window_capacity () =
  let spec =
    Sim.spec ~model:Params.ss_2way ~target:Exp.Riscv (Workloads.iota ())
  in
  let good = tmp "wincap.snap" in
  (match
     Sim.drive ~checkpoint_path:good ~stop_at:400 (lazy (Sim.start spec))
   with
   | Sim.Stopped _ -> ()
   | Sim.Completed _ -> Alcotest.fail "iota finished before cycle 400");
  let m, r = Snapshot.File.load good in
  let payload = String.sub r.Bin.data r.Bin.pos (Bin.remaining r) in
  let start, stop, cap = win_cap_span payload in
  Alcotest.(check int) "the image's window holds 1024 records" 1024 cap;
  let forge cap =
    let path = tmp (Printf.sprintf "wincap-%d.snap" cap) in
    let b = Buffer.create 16 in
    Bin.w_int b cap;
    Snapshot.File.save path m
      ~payload:
        (String.sub payload 0 start ^ Buffer.contents b
         ^ String.sub payload stop (String.length payload - stop));
    path
  in
  let restore path =
    (* an empty minor heap: nothing allocated before the restore is
       promoted (and subtracted) while it runs *)
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    let s = Sim.restore path in
    let bytes = Gc.allocated_bytes () -. before in
    Sys.remove path;
    (completed (Sim.drive (Lazy.from_val s)), bytes)
  in
  let want, base_bytes = restore good in
  List.iter
    (fun (label, cap) ->
       let got, bytes = restore (forge cap) in
       check_result_equal label want got;
       if cap = 1 lsl 18 then
         Alcotest.(check bool)
           (Printf.sprintf "%s: restore allocates %.1f MB, unforged %.1f MB"
              label (bytes /. 1e6) (base_bytes /. 1e6))
           true
           (Float.abs (bytes -. base_bytes) <= 1e6))
    [ ("capacity 2^18", 1 lsl 18); ("capacity 2^61", 1 lsl 61) ]

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

(* An engine image fingerprints only the prefix [0, F) its window had
   pulled when it was saved.  On a long run F stays within the
   window's high-water mark of the committed count, far below the
   run's length; a forged digest, an F outside [committed, retired] or
   below the retirements the image names, and a container or interval
   file of version 5 (before the meta recorded the IR level) are all
   refused. *)
let test_fingerprint_prefix () =
  List.iter
    (fun (model, target) ->
       let label = Exp.target_label target in
       let spec = Sim.spec ~model ~target (Workloads.stream ~iterations:1 ()) in
       let s = Sim.start spec in
       while Sim.cycle s < 2000 do Sim.step s done;
       let path = tmp "prefix.snap" in
       Sim.save s path;
       let window = Engine.window (Sim.engine s) in
       let m, r = Snapshot.File.load path in
       let payload = String.sub r.Bin.data r.Bin.pos (Bin.remaining r) in
       let open Snapshot.File in
       Alcotest.(check int) (label ^ ": F is the window frontier")
         (Ooo_common.Window.frontier window) m.digested;
       Alcotest.(check bool)
         (Printf.sprintf "%s: F %d within [%d, %d + high water %d]" label
            m.digested m.committed m.committed
            (Ooo_common.Window.high_water window))
         true
         (m.digested >= m.committed
          && m.digested <= m.committed + Ooo_common.Window.high_water window);
       Alcotest.(check bool)
         (Printf.sprintf "%s: F %d far below the %d retired" label m.digested
            m.retired)
         true
         (m.digested * 10 < m.retired);
       Alcotest.(check bool) (label ^ ": in-flight uops past the commit") true
         (m.digested > m.committed);
       let forged what ~because meta =
         let p = tmp "forged.snap" in
         save p meta ~payload;
         expect_snapshot_error ~because (label ^ ": " ^ what) (fun () ->
             ignore (Sim.restore p));
         Sys.remove p
       in
       forged "forged digest" ~because:"trace digest"
         { m with trace_digest = String.make 32 '0' };
       forged "F below the commit" ~because:"fingerprinted prefix"
         { m with digested = m.committed - 1 };
       forged "F past the run" ~because:"fingerprinted prefix"
         { m with digested = m.retired + 1 };
       forged "F below the image's uops" ~because:"past the"
         { m with digested = m.committed };
       let b = read_bytes path in
       Bytes.set b 8 '\005';
       write_bytes path b;
       expect_snapshot_error ~because:"container version 5"
         (label ^ ": version 5 engine image") (fun () ->
           ignore (Sim.restore path));
       Sys.remove path;
       (* the original file restores and finishes as the run does *)
       Sim.save s path;
       let resumed = completed (Sim.drive (lazy (Sim.restore path))) in
       Sys.remove path;
       check_result_equal label
         (completed (Sim.drive (Lazy.from_val s)))
         resumed)
    [ (Params.straight_4way, Exp.Straight_re); (Params.ss_4way, Exp.Riscv) ];
  (* an interval file of version 5 *)
  let dir = tmp "v5-intervals" in
  let plan, _ =
    Sample.Interval.materialize ~dir
      (Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re
         (Workloads.iota ~n:30 ()))
      (Sample.Spec.parse "interval=200,warmup=50")
  in
  let file = (List.hd plan.Sample.Interval.entries).Sample.Interval.path in
  let b = read_bytes file in
  Bytes.set b 8 '\005';
  write_bytes file b;
  expect_snapshot_error ~because:"container version 5"
    "version 5 interval file" (fun () ->
      ignore (Sample.Interval.run_file file));
  let sample = Filename.concat dir "sample" in
  Array.iter
    (fun f -> Sys.remove (Filename.concat sample f))
    (Sys.readdir sample);
  Unix.rmdir sample;
  Unix.rmdir dir

(* A restored session saves again, at once and later, and each file
   restores to the uninterrupted result.  The first save is taken just
   after a squash of correct-path uops (a memory-dependence replay):
   the window has pulled indices no uop in flight names, so the
   restored window stands below the restored F and the second save must
   record the cursor's position. *)
let test_chained_checkpoints () =
  List.iter
    (fun (model, target, w) ->
       let spec = Sim.spec ~model ~target w in
       let label = Exp.target_label target in
       let baseline = completed (Sim.drive (lazy (Sim.start spec))) in
       (* live correct-path uops are the indices from the committed count
          on, so the window frontier passes them only after a squash *)
       let s = Sim.start spec in
       let pulled_past_inflight () =
         let e = Sim.engine s in
         Ooo_common.Window.frontier (Engine.window e)
         > Engine.committed_count e + Engine.inflight e
           - Engine.wrong_path_inflight e
       in
       while not (Sim.finished s || pulled_past_inflight ()) do
         Sim.step s
       done;
       Alcotest.(check bool) (label ^ ": a squash of correct-path uops") true
         (not (Sim.finished s));
       let c1 = Sim.cycle s and c2 = (Sim.cycle s + baseline.Exp.cycles) / 2 in
       let a = tmp "chain-a.snap" and b = tmp "chain-b.snap"
       and c = tmp "chain-c.snap" in
       let stop ~at path s =
         match Sim.drive ~checkpoint_path:path ~stop_at:at s with
         | Sim.Stopped _ -> ()
         | Sim.Completed _ -> Alcotest.failf "%s: ran past cycle %d" label at
       in
       stop ~at:c1 a (Lazy.from_val s);
       let restored = Sim.restore a in
       Alcotest.(check bool) (label ^ ": restored window below F") true
         (Ooo_common.Window.frontier (Engine.window (Sim.engine restored))
          < (fst (Snapshot.File.load a)).Snapshot.File.digested);
       stop ~at:c1 b (Lazy.from_val restored);
       stop ~at:c2 c (lazy (Sim.restore b));
       List.iter
         (fun (what, path) ->
            check_result_equal (label ^ ": " ^ what) baseline
              (completed (Sim.drive (lazy (Sim.restore path)))))
         [ ("first save", a); ("re-saved at once", b); ("re-saved later", c) ];
       List.iter Sys.remove [ a; b; c ])
    [ (Params.straight_4way, Exp.Straight_re, Workloads.sort ~n:40 ());
      (Params.ss_4way, Exp.Riscv, Workloads.sort ~n:40 ()) ]

(* A checkpoint flag without a path is refused before any work:
   straightsim drives [lazy (start spec)] or [lazy (restore file)], and
   neither is forced.  A source that does not parse and a snapshot that
   does not exist would each fail with their own code (3, 9) if it
   were. *)
let test_flags_need_path () =
  let spec =
    Sim.spec ~model:Params.straight_2way ~target:Exp.Straight_re
      (Workloads.iota ~n:10 ())
  in
  let unparsable =
    { spec with
      Sim.workload = { spec.Sim.workload with Workloads.source = "int (" } }
  in
  let missing = tmp "never-written.snap" in
  List.iter
    (fun f ->
       match f () with
       | (_ : Sim.outcome) ->
         Alcotest.fail "checkpoint flag without a path was accepted"
       | exception Diag.Error d ->
         Alcotest.(check string) "config error" "CONFIG_ERROR"
           (Diag.code_name d.Diag.code);
         Alcotest.(check int) "exit code" 2 (Diag.exit_code d.Diag.code))
    [ (fun () -> Sim.drive ~checkpoint_every:100 (lazy (Sim.start spec)));
      (fun () -> Sim.drive ~stop_at:100 (lazy (Sim.start spec)));
      (fun () -> Sim.drive ~stop_at:5 (lazy (Sim.start unparsable)));
      (fun () -> Sim.drive ~checkpoint_every:5 (lazy (Sim.start unparsable)));
      (fun () -> Sim.drive ~stop_at:5 (lazy (Sim.restore missing)));
      (fun () ->
         Sim.drive ~checkpoint_every:5 (lazy (Sim.resume spec missing))) ]

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

let sweep_point ?opt () =
  { Sweep.Grid.spec =
      Sim.spec ?opt ~model:Params.straight_2way ~target:Exp.Straight_re
        (Workloads.iota ~n:40 ());
    machine = Sweep.Grid.Straight_re;
    width = 2;
    sample = None }

let scrub (r : Sweep.Runner.record) = { r with Sweep.Runner.host_seconds = 0. }

let test_sweep_resume_identical () =
  let pt = sweep_point () in
  let clean = Sweep.Runner.run pt in
  (* simulate the kill: leave a mid-run checkpoint at the keyed path *)
  let path = tmp "sweep-resume.snap" in
  let spec = pt.Sweep.Grid.spec in
  (match
     Sim.drive ~checkpoint_path:path
       ~stop_at:(clean.Sweep.Runner.cycles / 2)
       (lazy (Sim.start spec))
   with
   | Sim.Stopped _ -> ()
   | Sim.Completed _ -> Alcotest.fail "point too short to interrupt");
  let resumed = Sweep.Runner.run ~checkpoint:path pt in
  Alcotest.(check bool)
    "resumed record identical to a clean run's (modulo host_seconds)" true
    (scrub clean = scrub resumed)

(* A point compiled at O0 checkpoints and resumes to its own
   uninterrupted result; the same file under the O2 spec is another
   run's and is refused. *)
let test_sweep_opt_checkpoint () =
  let pt = sweep_point ~opt:Ssa_ir.Passes.O0 () in
  let clean = Sweep.Runner.run pt in
  Alcotest.(check string) "record names its IR level" "O0"
    clean.Sweep.Runner.opt;
  let o2 = Sweep.Runner.run (sweep_point ()) in
  Alcotest.(check bool) "O0 and O2 retire different code" true
    (clean.Sweep.Runner.committed <> o2.Sweep.Runner.committed);
  let path = tmp "sweep-o0.snap" in
  (match
     Sim.drive ~checkpoint_path:path
       ~stop_at:(clean.Sweep.Runner.cycles / 2)
       (lazy (Sim.start pt.Sweep.Grid.spec))
   with
   | Sim.Stopped _ -> ()
   | Sim.Completed _ -> Alcotest.fail "point too short to interrupt");
  expect_snapshot_error ~because:"checker on, O0" "O2 resume of an O0 checkpoint"
    (fun () -> ignore (Sim.resume (sweep_point ()).Sweep.Grid.spec path));
  let resumed = Sweep.Runner.run ~checkpoint:path pt in
  Alcotest.(check bool) "resumed O0 record = uninterrupted O0 record" true
    (scrub clean = scrub resumed)

(* [Bin.w_int]/[r_int] write the bytes of the Int64 LEB128 codec
   ([w_i64] of the sign-extended value) without boxing an Int64. *)
let test_bin_native_ints () =
  let values =
    [ 0; 1; 127; 128; max_int; min_int; -1; -128 ]
    @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k ]) (List.init 56 (fun i -> i + 7))
  in
  List.iter
    (fun n ->
       let want = Buffer.create 10 and got = Buffer.create 10 in
       Bin.w_i64 want (Int64.of_int n);
       Bin.w_int got n;
       Alcotest.(check string) (Printf.sprintf "bytes of %d" n)
         (Buffer.contents want) (Buffer.contents got);
       let r = Bin.reader (Buffer.contents got) in
       Alcotest.(check int) (Printf.sprintf "%d reads back" n) n (Bin.r_int r);
       Bin.expect_end r)
    values;
  Alcotest.(check int) "a negative int takes 10 bytes" 10
    (let b = Buffer.create 10 in Bin.w_int b (-1); Buffer.length b);
  let calls = 100_000 in
  let b = Buffer.create (10 * calls) in
  let per_call f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let w =
    per_call (fun () ->
        for i = 1 to calls do Bin.w_int b (i * 7919 - 50_000) done)
  in
  let r = Bin.reader (Buffer.contents b) in
  let sum = ref 0 in
  let rd = per_call (fun () -> for _ = 1 to calls do sum := !sum + Bin.r_int r done) in
  Bin.expect_end r;
  Alcotest.(check bool) (Printf.sprintf "w_int: %.4f minor words per call" w) true
    (w < 0.01);
  Alcotest.(check bool) (Printf.sprintf "r_int: %.4f minor words per call" rd) true
    (rd < 0.01)

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
    ("reject: engine image of the previous version", `Quick,
     test_reject_old_engine_image);
    ("restore: a forged window capacity sizes nothing", `Quick,
     test_forged_window_capacity);
    ("reject: missing file", `Quick, test_reject_missing);
    ("fingerprint: bounded prefix, forgeries refused", `Quick,
     test_fingerprint_prefix);
    ("restore, save again, restore: chained checkpoints", `Quick,
     test_chained_checkpoints);
    ("reject: resume under a different spec", `Quick,
     test_reject_spec_mismatch);
    ("checkpoint flags require a path", `Quick, test_flags_need_path);
    ("spec: ISA/core mismatch is a config error", `Quick,
     test_spec_rejects_isa_core_mismatch);
    ("sweep: resumed point = clean point", `Slow,
     test_sweep_resume_identical);
    ("sweep: unusable checkpoint restarts clean", `Quick,
     test_sweep_unusable_checkpoint_restarts);
    ("sweep: an O0 checkpoint resumes only as O0", `Quick,
     test_sweep_opt_checkpoint);
    ("bin: native LEB128 ints", `Quick, test_bin_native_ints);
    ("atomic write: failures leave no temp file", `Quick,
     test_atomic_write_failures) ]

let () = Alcotest.run "snapshot" [ ("snapshot", suite) ]
