(* Sweep-subsystem tests:

   - Params JSON round-trip and stable digest (the cache/memo key);
   - grid expansion (axes multiply, digests are distinct);
   - the content-addressed store (hit after save, miss across keys,
     corrupt entries degrade to misses);
   - the fork pool (results, worker exceptions, retry exhaustion,
     timeout kill, a worker dying mid-job) and its persistent session
     driven directly;
   - the in-process driver cache contract (second run = all hits) and
     a cache directory nested under missing parents;
   - the pinned golden corpus: the 12-point 3x2x2 grid's cycles and
     CPI stacks must match test/sweep_golden.json exactly.  Regenerate
     the corpus after an intentional timing change with
     SWEEP_GOLDEN_RECORD=1 dune exec test/test_sweep.exe *)

module Params = Ooo_common.Params
module Stats = Ooo_common.Stats
module J = Json
module Inject = Ooo_common.Inject

(* ---------- Params serialization ---------- *)

let variant_models () =
  [ Params.ss_2way;
    Params.straight_2way;
    Params.ss_4way;
    Params.straight_4way;
    Params.with_tage Params.ss_4way;
    Params.with_checkpoints ~n:8 Params.ss_4way;
    Params.with_ideal_recovery Params.straight_2way;
    Params.with_faults (Inject.plan ~period:500 42) Params.ss_2way;
    Params.with_faults
      (Inject.plan ~kinds:[ Inject.Flip_prediction; Inject.Corrupt_cache_tag ]
         7)
      Params.straight_4way;
    { Params.ss_4way with Params.l3 = None; name = "SS-4way-nol3" } ]

let test_params_roundtrip () =
  List.iter
    (fun p ->
       let p' = Params.of_json (Params.to_json p) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: of_json (to_json p) = p" p.Params.name)
         true (Params.equal p p');
       (* the round-trip survives the compact textual rendering too *)
       let p'' =
         Params.of_json (J.of_string (J.to_string ~indent:false (Params.to_json p)))
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s: text round-trip" p.Params.name)
         true (Params.equal p p''))
    (variant_models ())

let test_params_digest () =
  (* equal configs digest equally; any field change moves the digest *)
  let d = Params.digest Params.ss_4way in
  Alcotest.(check string) "digest is deterministic" d
    (Params.digest { Params.ss_4way with Params.name = Params.ss_4way.Params.name });
  let variants =
    [ { Params.ss_4way with Params.rob_entries = 225 };
      { Params.ss_4way with Params.ideal_recovery = true };
      { Params.ss_4way with Params.predictor = Params.Tage };
      { Params.ss_4way with Params.rename = Params.Rp };
      Params.with_faults (Inject.plan 1) Params.ss_4way ]
  in
  List.iter
    (fun v ->
       Alcotest.(check bool)
         (Printf.sprintf "digest separates %s variant" v.Params.name)
         true
         (Params.digest v <> d))
    variants;
  (* malformed input is a structured error, not a crash *)
  Alcotest.(check bool) "of_json rejects junk" true
    (match Params.of_json (J.Obj [ ("name", J.Str "x") ]) with
     | _ -> false
     | exception J.Parse_error _ -> true)

(* ---------- grid expansion ---------- *)

let test_grid_expand () =
  let spec = Sweep.Grid.default ~quick:true in
  let points = Sweep.Grid.expand spec in
  Alcotest.(check int) "default grid is 2x2x2x2x2" 32 (List.length points);
  let digests =
    List.sort_uniq compare
      (List.map
         (fun (pt : Sweep.Grid.point) ->
            (Params.digest pt.Sweep.Grid.spec.Snapshot.Sim.params,
             pt.Sweep.Grid.spec.Snapshot.Sim.workload.Workloads.name))
         points)
  in
  Alcotest.(check int) "every point is distinct" 32 (List.length digests);
  (* axis overrides multiply *)
  let bigger =
    Sweep.Grid.expand
      { spec with Sweep.Grid.robs = [ None; Some 128 ]; widths = [ 2; 4; 8 ] }
  in
  Alcotest.(check int) "robs x widths multiply" (32 * 3) (List.length bigger);
  (* a rob override rescales the RMT register file *)
  let rob_pt =
    List.find
      (fun (pt : Sweep.Grid.point) ->
         pt.Sweep.Grid.spec.Snapshot.Sim.params.Params.rob_entries = 128
         && pt.Sweep.Grid.machine = Sweep.Grid.Ss)
      bigger
  in
  (match rob_pt.Sweep.Grid.spec.Snapshot.Sim.params.Params.rename with
   | Params.Rmt { phys_regs } ->
     Alcotest.(check int) "phys_regs = 32 + rob" 160 phys_regs
   | _ -> Alcotest.fail "SS point lost its RMT rename model");
  Alcotest.(check bool) "machine labels round-trip" true
    (List.for_all
       (fun m ->
          Sweep.Grid.machine_of_label (Sweep.Grid.machine_label m) = Some m)
       [ Sweep.Grid.Ss; Sweep.Grid.Ss_ckpt 8; Sweep.Grid.Straight_raw;
         Sweep.Grid.Straight_re ])

(* Axis values are checked once, in [Grid.model]: a machine needs a lane
   and a ROB entry, a scheduler may be empty (the deadlock hook), and a
   bad value or workload is a CONFIG_ERROR before anything simulates. *)
let test_grid_axis_checks () =
  let module G = Sweep.Grid in
  let one = { G.smoke with G.workloads = [ "fib" ] } in
  List.iter
    (fun (label, spec) ->
       match G.expand spec with
       | _ -> Alcotest.failf "%s expanded" label
       | exception Diag.Error { Diag.code = Diag.Config_error; _ } -> ())
    [ ("rob 0", { one with G.robs = [ Some 0 ] });
      ("rob -3", { one with G.robs = [ Some (-3) ] });
      ("sched -1", { one with G.scheds = [ Some (-1) ] });
      ("width 0", { one with G.widths = [ 0 ] });
      ("width -2", { one with G.widths = [ -2 ] });
      ("unknown workload", { one with G.workloads = [ "pointer-chase" ] });
      ("kernel with a count", { one with G.workloads = [ "fib:2" ] }) ];
  let pts =
    G.expand
      { one with G.robs = [ Some 1 ]; scheds = [ Some 0 ];
                 workloads = [ "stream:1"; "wasm_sieve" ] }
  in
  Alcotest.(check (list (pair string int))) "rob 1, sched 0 and the names expand"
    [ ("stream", 1); ("wasm_sieve", 1) ]
    (List.map
       (fun (pt : G.point) ->
          let w = pt.G.spec.Snapshot.Sim.workload in
          (w.Workloads.name, w.Workloads.iterations))
       pts)

(* ---------- the content key ---------- *)

(* The sweep store and the sampler's plans share one key: changing any
   one input alone moves both. *)
let test_key_covers_every_input () =
  let module Sim = Snapshot.Sim in
  let sp = Sample.Spec.parse "interval=5k,warmup=1k" in
  let w = Workloads.fib () in
  let base =
    Sim.spec ~model:Params.straight_2way
      ~target:Straight_core.Experiment.Straight_re w
  in
  let keys (spec, sample) =
    ( Sweep.Store.key
        { Sweep.Grid.spec; machine = Sweep.Grid.Straight_re; width = 2;
          sample = Some sample },
      Sample.Interval.plan_key spec sample )
  in
  let store0, plan0 = keys (base, sp) in
  List.iter
    (fun (what, variant) ->
       let store, plan = keys variant in
       Alcotest.(check bool) (what ^ " moves the store key") true (store <> store0);
       Alcotest.(check bool) (what ^ " moves the plan key") true (plan <> plan0))
    [ ("model", ({ base with Sim.params = Params.with_tage Params.straight_2way }, sp));
      ("target", ({ base with Sim.target = Straight_core.Experiment.Straight_raw }, sp));
      ("workload name", ({ base with Sim.workload = { w with Workloads.name = "fib2" } }, sp));
      ("iterations",
       ({ base with
          Sim.workload = { w with Workloads.iterations = w.Workloads.iterations + 1 } },
        sp));
      ("source",
       ({ base with Sim.workload = { w with Workloads.source = w.Workloads.source ^ "\n" } },
        sp));
      ("max_insns", ({ base with Sim.max_insns = base.Sim.max_insns - 1 }, sp));
      ("max_dist", ({ base with Sim.max_dist = 127 }, sp));
      ("check", ({ base with Sim.check = false }, sp));
      ("opt", ({ base with Sim.opt = Ssa_ir.Passes.O1 }, sp));
      ("sample spec", (base, Sample.Spec.parse "interval=4k,warmup=1k")) ];
  Alcotest.(check bool) "an exact point keys apart from a sampled one" true
    (Sweep.Store.key
       { Sweep.Grid.spec = base; machine = Sweep.Grid.Straight_re; width = 2;
         sample = None }
     <> store0)

(* ---------- the paper grid ---------- *)

(* A record for a point without simulating it: distinct numbers per
   point, every statistic a table reads nonzero. *)
let synthetic i (pt : Sweep.Grid.point) : Sweep.Runner.record =
  let sp = pt.Sweep.Grid.spec in
  let p = sp.Snapshot.Sim.params in
  let n k = 1000 * (i + 1) + k in
  { Sweep.Runner.model = p.Params.name;
    target = Straight_core.Experiment.target_label sp.Snapshot.Sim.target;
    workload = sp.Snapshot.Sim.workload.Workloads.name;
    iterations = sp.Snapshot.Sim.workload.Workloads.iterations;
    machine = Sweep.Grid.machine_label pt.Sweep.Grid.machine;
    width = pt.Sweep.Grid.width;
    rob = p.Params.rob_entries; sched = p.Params.scheduler_entries;
    predictor = Params.predictor_name p.Params.predictor;
    ideal = p.Params.ideal_recovery;
    max_dist = sp.Snapshot.Sim.max_dist;
    opt = Ssa_ir.Passes.opt_name sp.Snapshot.Sim.opt;
    params_hash = Params.digest p;
    cycles = n 0; committed = n 500; ipc = 1.5; branch_mispredicts = n 1;
    cpi = { Stats.base = n 0; frontend = 1; branch_squash = 2; memory = 3;
            structural = 4 };
    mix = [ ("Jump+Branch", n 1); ("ALU", n 2); ("LD", n 3); ("ST", n 4);
            ("RMOV", n 5); ("NOP", n 6) ];
    activity =
      { Ooo_common.Engine.rename_reads = n 1; rename_writes = n 2;
        freelist_ops = n 3; rp_ops = n 4; rf_reads = n 5; rf_writes = n 6;
        iq_wakeups = n 7; rob_writes = n 8; rob_walk_steps = n 9;
        alu_ops = n 10; agu_ops = n 11 };
    spadd_stall_slots = n 7; host_seconds = 0.; cached = false;
    sample = None; sample_ci95 = 0.; sample_intervals = 0 }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_paper_grid () =
  let points = Sweep.Grid.paper ~quick:true in
  Alcotest.(check int) "46 points" 46 (List.length points);
  Alcotest.(check int) "no two points share a key" 46
    (List.length (List.sort_uniq compare (List.map Sweep.Store.key points)));
  let doc = Sweep.Figures.render ~quick:true (List.mapi synthetic points) in
  Alcotest.(check bool) "no cell is missing" false (contains doc "| — |");
  List.iter
    (fun heading ->
       Alcotest.(check bool) (heading ^ " is rendered") true
         (contains doc ("\n## " ^ heading)))
    [ "Table I"; "Fig. 10"; "Figs. 11 (4-way)"; "Fig. 13"; "Fig. 14"; "Fig. 15";
      "Fig. 16"; "Section VI-B"; "Fig. 17"; "Ablation: IR optimization level";
      "Window scalability" ];
  List.iter
    (fun model ->
       Alcotest.(check bool) (model ^ " (front-end ablation) is rendered") true
         (contains doc ("| " ^ model ^ " |")))
    [ "SS-4way-fe6"; "STRAIGHT-4way-fe8" ]

(* ---------- store ---------- *)

let tmpdir prefix = Filename.temp_dir prefix ""

let sample_record () : Sweep.Runner.record =
  { Sweep.Runner.model = "SS-2way"; target = "SS"; workload = "fib";
    iterations = 1; machine = "ss"; width = 2; rob = 64; sched = 16;
    predictor = "gshare"; ideal = false; params_hash = "abc"; cycles = 123;
    committed = 456; ipc = 3.7; branch_mispredicts = 8;
    cpi = { Stats.base = 100; frontend = 10; branch_squash = 5; memory = 6;
            structural = 2 };
    max_dist = 31; opt = "O2";
    mix = [ ("ALU", 300); ("LD", 100); ("RMOV", 0) ];
    activity =
      { (Ooo_common.Engine.fresh_activity ()) with
        Ooo_common.Engine.rename_reads = 11; rob_walk_steps = 3 };
    spadd_stall_slots = 4;
    host_seconds = 0.25; cached = false; sample = None; sample_ci95 = 0.;
    sample_intervals = 0 }

let test_store () =
  let dir = tmpdir "straight-store" in
  let r = sample_record () in
  Alcotest.(check bool) "miss before save" true
    (Sweep.Store.lookup ~dir "deadbeef" = None);
  Sweep.Store.save ~dir "deadbeef" r;
  (match Sweep.Store.lookup ~dir "deadbeef" with
   | None -> Alcotest.fail "hit after save"
   | Some got ->
     Alcotest.(check bool) "lookup marks the record cached" true
       got.Sweep.Runner.cached;
     Alcotest.(check bool) "payload survives the disk round-trip" true
       ({ got with Sweep.Runner.cached = false } = r));
  Alcotest.(check bool) "other keys still miss" true
    (Sweep.Store.lookup ~dir "deadbee0" = None);
  (* a torn/corrupt entry degrades to a miss, never an exception *)
  Out_channel.with_open_text
    (Filename.concat dir "cache/corrupt.json")
    (fun oc -> output_string oc "{\"model\": \"SS");
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Sweep.Store.lookup ~dir "corrupt" = None)

(* ---------- fork pool ---------- *)

let test_pool_basic () =
  let results = Array.make 20 None in
  Sweep.Pool.run ~jobs:20
    ~worker:(fun i -> string_of_int (i * i))
    ~procs:3 ~timeout:30. ~retries:0
    ~on_result:(fun i r -> results.(i) <- Some r)
    ();
  Array.iteri
    (fun i r ->
       match r with
       | Some (Ok s) ->
         Alcotest.(check string)
           (Printf.sprintf "job %d result" i)
           (string_of_int (i * i))
           s
       | Some (Error e) -> Alcotest.failf "job %d failed: %s" i e
       | None -> Alcotest.failf "job %d never reported" i)
    results

let test_pool_worker_exception () =
  let results = Array.make 6 None in
  Sweep.Pool.run ~jobs:6
    ~worker:(fun i -> if i = 3 then failwith "boom" else string_of_int i)
    ~procs:2 ~timeout:30. ~retries:1
    ~on_result:(fun i r -> results.(i) <- Some r)
    ();
  Array.iteri
    (fun i r ->
       match (i, r) with
       | 3, Some (Error msg) ->
         let contains hay needle =
           let n = String.length needle and h = String.length hay in
           let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
           at 0
         in
         Alcotest.(check bool) "failure names the exception" true
           (contains msg "boom")
       | 3, Some (Ok _) -> Alcotest.fail "job 3 should have failed"
       | _, Some (Ok _) -> ()
       | _, Some (Error e) -> Alcotest.failf "job %d failed: %s" i e
       | _, None -> Alcotest.failf "job %d never reported" i)
    results

let test_pool_timeout () =
  let results = Array.make 3 None in
  Sweep.Pool.run ~jobs:3
    ~worker:(fun i ->
        if i = 1 then
          while true do
            ignore (Unix.select [] [] [] 0.05)
          done;
        string_of_int i)
    ~procs:2 ~timeout:0.5 ~retries:0
    ~on_result:(fun i r -> results.(i) <- Some r)
    ();
  (match results.(1) with
   | Some (Error msg) ->
     Alcotest.(check bool) "hung job reports a timeout" true
       (String.length msg >= 7 && String.sub msg 0 7 = "timeout")
   | Some (Ok _) -> Alcotest.fail "hung job cannot succeed"
   | None -> Alcotest.fail "hung job never reported");
  List.iter
    (fun i ->
       match results.(i) with
       | Some (Ok _) -> ()
       | _ -> Alcotest.failf "job %d should have succeeded" i)
    [ 0; 2 ]

let test_pool_callback_exception () =
  (* an exception escaping [on_result] must not leak workers or leave
     our signal handlers hijacked (the pool swaps in its own for the
     duration of [run]) *)
  let dir = tmpdir "straight-pool-cb" in
  let mark = ref 0 in
  let f _ = incr mark in
  let h = Sys.Signal_handle f in
  let prev_int = Sys.signal Sys.sigint h in
  let prev_term = Sys.signal Sys.sigterm h in
  let escaped =
    match
      Sweep.Pool.run ~jobs:3
        ~worker:(fun i ->
            let oc =
              open_out (Filename.concat dir (Printf.sprintf "w%d.pid" i))
            in
            output_string oc (string_of_int (Unix.getpid ()));
            close_out oc;
            if i = 0 then begin
              (* give the other worker time to start and write its pid *)
              ignore (Unix.select [] [] [] 0.3);
              "fast"
            end
            else begin
              while true do
                ignore (Unix.select [] [] [] 0.05)
              done;
              assert false
            end)
        ~procs:2 ~timeout:30. ~retries:0
        ~on_result:(fun _ _ -> failwith "callback boom")
        ()
    with
    | () -> false
    | exception Failure m -> m = "callback boom"
  in
  Alcotest.(check bool) "the callback's exception escapes as-is" true escaped;
  (* every worker the pool forked must be dead and reaped *)
  let pids =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pid")
    |> List.filter_map (fun f ->
        let ic = open_in (Filename.concat dir f) in
        let pid = int_of_string_opt (input_line ic) in
        close_in ic;
        pid)
  in
  Alcotest.(check bool) "some worker pids were recorded" true (pids <> []);
  List.iter
    (fun pid ->
       let rec dead tries =
         match Unix.kill pid 0 with
         | () -> tries > 0 && (ignore (Unix.select [] [] [] 0.05); dead (tries - 1))
         | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
         | exception Unix.Unix_error _ -> false
       in
       Alcotest.(check bool)
         (Printf.sprintf "worker %d no longer exists" pid)
         true (dead 40))
    pids;
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
   | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
   | _ -> Alcotest.fail "an unreaped child survived the pool");
  (* the handlers we installed before [run] must be back in force *)
  let cur_int = Sys.signal Sys.sigint prev_int in
  let cur_term = Sys.signal Sys.sigterm prev_term in
  let is_ours = function Sys.Signal_handle g -> g == f | _ -> false in
  Alcotest.(check bool) "SIGINT handler restored" true (is_ours cur_int);
  Alcotest.(check bool) "SIGTERM handler restored" true (is_ours cur_term)

let test_pool_worker_death () =
  (* job 1's worker dies on its first attempt only (a marker file tells
     the attempts apart): the pool respawns it and retries after the
     jittered first backoff step, or fails the job without a budget *)
  let run ~retries =
    let marker = Filename.concat (tmpdir "straight-pool-death") "died" in
    let results = Array.make 2 None in
    let events = ref [] in
    Sweep.Pool.run ~jobs:2 ~procs:1 ~timeout:30. ~retries
      ~worker:(fun i ->
          if i = 1 && not (Sys.file_exists marker) then begin
            close_out (open_out marker);
            Unix._exit 3
          end;
          string_of_int i)
      ~on_event:(fun e -> events := e :: !events)
      ~on_result:(fun i r -> results.(i) <- Some r)
      ();
    (results, List.rev !events)
  in
  let results, events = run ~retries:1 in
  (match events with
   | [ Sweep.Pool.Retry
         { job = 1; attempt = 1; backoff; reason = "worker died" } ] ->
     Alcotest.(check bool) "backoff within 0.25 s +/- 25%" true
       (backoff >= 0.1875 && backoff <= 0.3125)
   | _ -> Alcotest.fail "expected exactly one worker-died retry of job 1");
  Alcotest.(check bool) "both jobs succeed after the retry" true
    (results = [| Some (Ok "0"); Some (Ok "1") |]);
  let results, events = run ~retries:0 in
  Alcotest.(check int) "no retry without a budget" 0 (List.length events);
  Alcotest.(check bool) "the job whose worker died fails" true
    (results = [| Some (Ok "0"); Some (Error "worker died") |])

let test_persistent_failures () =
  let module P = Sweep.Pool.Persistent in
  let p =
    P.create ~procs:1
      ~worker:(function
          | "raise" -> failwith "kaboom"
          | "exit" -> Unix._exit 3
          | "hang" -> Unix.sleepf 60.; "late"
          | s -> "echo " ^ s)
      ()
  in
  let next_id = ref 0 in
  (* submit one job and wait for its result the way the daemon does:
     select on the busy result pipes, then poll *)
  let job ?timeout_job payload =
    incr next_id;
    let id = !next_id in
    P.submit p ~id payload;
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "job %S never answered" payload;
      (try ignore (Unix.select (P.result_fds p) [] [] 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      match List.assoc_opt id (P.poll ?timeout_job p) with
      | Some r -> r
      | None -> wait ()
    in
    wait ()
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let service m = Error (Diag.make Diag.Service_error m) in
  Alcotest.(check bool) "a raising payload names the exception" true
    (job "raise" = service (Printexc.to_string (Failure "kaboom")));
  Alcotest.(check bool) "an exiting payload reports a dead worker" true
    (job "exit" = service "worker died");
  Alcotest.(check bool) "the respawned worker serves the next job" true
    (job "a" = Ok "echo a");
  (match job ~timeout_job:0.3 "hang" with
   | Error { Diag.code = Diag.Service_error; message = msg; _ } ->
     Alcotest.(check bool) "a hung job times out" true
       (String.length msg >= 7 && String.sub msg 0 7 = "timeout")
   | Error d -> Alcotest.failf "a hung job: %s" (Diag.to_string d)
   | Ok _ -> Alcotest.fail "a hung job cannot succeed");
  Alcotest.(check bool) "the replacement worker serves the next job" true
    (job "b" = Ok "echo b");
  P.shutdown p;
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> Alcotest.fail "a worker survived shutdown"

(* A worker's [Diag.Error] reaches the parent as the same [Diag.t],
   whatever its code and however awkward its text; any other exception
   is a [Service_error] with its [Printexc] text, and [Pool.run] reports
   a job's [Diag] the way the command-line tools print it. *)
let test_pool_worker_diag () =
  let module P = Sweep.Pool.Persistent in
  let diag_of name =
    Diag.make
      (Option.get (Diag.of_code_name name))
      ("failed in " ^ name ^ " \"quoted\"\n\ttabbed \xce\xbb")
      ~context:[ ("code", name); ("empty", ""); ("line", "a\nb") ]
  in
  let p =
    P.create ~procs:2
      ~worker:(function
          | "failure" -> failwith "kaboom"
          | "bare" -> raise (Diag.Error (Diag.make Diag.Sim_deadlock "stuck"))
          | name -> raise (Diag.Error (diag_of name)))
      ()
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let payloads = "failure" :: "bare" :: List.map Diag.code_name Diag.codes in
  List.iteri (fun id payload -> P.submit p ~id payload) payloads;
  let results = Hashtbl.create 32 in
  let deadline = Unix.gettimeofday () +. 20. in
  while Hashtbl.length results < List.length payloads do
    if Unix.gettimeofday () > deadline then Alcotest.fail "jobs never answered";
    (try ignore (Unix.select (P.result_fds p) [] [] 0.05)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter (fun (id, r) -> Hashtbl.replace results id r) (P.poll p)
  done;
  List.iteri
    (fun id payload ->
       let want =
         match payload with
         | "failure" ->
           Diag.make Diag.Service_error (Printexc.to_string (Failure "kaboom"))
         | "bare" -> Diag.make Diag.Sim_deadlock "stuck"
         | name -> diag_of name
       in
       match Hashtbl.find results id with
       | Error d ->
         Alcotest.(check string) (payload ^ ": diag") (Diag.to_string want)
           (Diag.to_string d);
         Alcotest.(check bool) (payload ^ ": same Diag.t") true (d = want)
       | Ok line -> Alcotest.failf "%s: succeeded with %S" payload line)
    payloads;
  let msgs = Array.make 2 "" in
  Sweep.Pool.run ~jobs:2 ~procs:1 ~retries:0
    ~worker:(function
        | 0 -> raise (Diag.Error (diag_of "SIM_DEADLOCK"))
        | _ -> failwith "kaboom")
    ~on_result:(fun i -> function
        | Error m -> msgs.(i) <- m
        | Ok _ -> Alcotest.failf "job %d succeeded" i)
    ();
  Alcotest.(check string) "run: a Diag reads as the CLI prints it"
    (Diag.to_string (diag_of "SIM_DEADLOCK")) msgs.(0);
  Alcotest.(check string) "run: another exception reads as its text"
    (Printexc.to_string (Failure "kaboom")) msgs.(1)

(* ---------- stale temp hygiene ---------- *)

let test_store_stale_tmp_sweep () =
  let dir = tmpdir "straight-store-stale" in
  (* populate the store first: [save] marks the directory swept for
     this process, so only the explicit [sweep_stale] below may clean *)
  Sweep.Store.save ~dir "cafe" (sample_record ());
  let cache = Filename.concat dir "cache" in
  (* a provably dead pid: a child that already exited and was reaped *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
      ignore (Unix.waitpid [] pid);
      pid
  in
  let plant name =
    let f = Filename.concat cache name in
    let oc = open_out f in
    output_string oc "{\"torn\": true}";
    close_out oc;
    f
  in
  let stale = plant (Printf.sprintf "dead.json.tmp.%d" dead_pid) in
  let live = plant (Printf.sprintf "live.json.tmp.%d" (Unix.getpid ())) in
  Alcotest.(check int) "exactly the dead writer's file is swept" 1
    (Sweep.Store.sweep_stale ~dir);
  Alcotest.(check bool) "stale temp removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "live writer's temp kept" true (Sys.file_exists live);
  Alcotest.(check bool) "real entries survive the sweep" true
    (Sweep.Store.lookup ~dir "cafe" <> None)

let test_store_rename_failure_unlinks_tmp () =
  let dir = tmpdir "straight-store-rename" in
  Sweep.Store.save ~dir "aaaa" (sample_record ());
  let cache = Filename.concat dir "cache" in
  (* an existing directory at the destination makes the rename fail *)
  Unix.mkdir (Filename.concat cache "blocked.json") 0o755;
  (match Sweep.Store.save ~dir "blocked" (sample_record ()) with
   | () -> Alcotest.fail "rename onto a directory should raise"
   | exception (Unix.Unix_error _ | Sys_error _) -> ());
  let has_tmp_marker f =
    let marker = ".tmp." in
    let n = String.length f and m = String.length marker in
    let rec has i = i + m <= n && (String.sub f i m = marker || has (i + 1)) in
    has 0
  in
  let leftovers =
    Sys.readdir cache |> Array.to_list |> List.filter has_tmp_marker
  in
  Alcotest.(check (list string)) "no temp file stranded by the failed rename"
    [] leftovers

(* ---------- driver cache contract ---------- *)

let test_driver_cache_hits () =
  let dir = tmpdir "straight-sweep" in
  let spec = Sweep.Grid.smoke in
  let r1, s1 = Sweep.Driver.sweep ~procs:0 ~cache_dir:dir (Sweep.Grid.expand spec) in
  Alcotest.(check int) "first run simulates everything" 2
    s1.Sweep.Driver.executed;
  Alcotest.(check int) "first run hits nothing" 0 s1.Sweep.Driver.cached;
  let r2, s2 = Sweep.Driver.sweep ~procs:0 ~cache_dir:dir (Sweep.Grid.expand spec) in
  Alcotest.(check int) "second run simulates nothing" 0
    s2.Sweep.Driver.executed;
  Alcotest.(check int) "second run is all cache hits" 2
    s2.Sweep.Driver.cached;
  List.iter2
    (fun (a : Sweep.Runner.record) (b : Sweep.Runner.record) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: cached record equals fresh" a.Sweep.Runner.workload)
         true
         ({ a with Sweep.Runner.cached = false; host_seconds = 0. }
          = { b with Sweep.Runner.cached = false; host_seconds = 0. }))
    r1 r2;
  (* sweep.json document shape *)
  let doc = Sweep.Driver.to_json (Sweep.Grid.spec_to_json spec) s2 r2 in
  Alcotest.(check (option string)) "schema" (Some "straight-sweep/1")
    (J.get_string (J.member "schema" doc));
  (match J.get_list (J.member "records" doc) with
   | Some l -> Alcotest.(check int) "one record per point" 2 (List.length l)
   | None -> Alcotest.fail "records list missing")

let test_driver_nested_cache_dir () =
  (* the pool path creates the checkpoint directory under a cache
     directory none of whose parents exist yet *)
  let dir =
    List.fold_left Filename.concat (tmpdir "straight-sweep-nested")
      [ "a"; "b"; "c" ]
  in
  let records, s =
    Sweep.Driver.sweep ~procs:1 ~cache_dir:dir
      (Sweep.Grid.expand
         { Sweep.Grid.smoke with Sweep.Grid.workloads = [ "fib" ] })
  in
  Alcotest.(check int) "one record" 1 (List.length records);
  Alcotest.(check int) "no failures" 0 s.Sweep.Driver.failed

(* ---------- golden corpus ---------- *)

(* dune runtest sandboxes the dep beside the test binary; dune exec
   from the repo root sees it under test/ *)
let golden_path =
  if Sys.file_exists "sweep_golden.json" then "sweep_golden.json"
  else "test/sweep_golden.json"

let golden_of_record (r : Sweep.Runner.record) : J.t =
  J.Obj
    [ ("model", J.Str r.Sweep.Runner.model);
      ("target", J.Str r.Sweep.Runner.target);
      ("workload", J.Str r.Sweep.Runner.workload);
      ("iterations", J.Int r.Sweep.Runner.iterations);
      ("machine", J.Str r.Sweep.Runner.machine);
      ("width", J.Int r.Sweep.Runner.width);
      ("predictor", J.Str r.Sweep.Runner.predictor);
      ("ideal", J.Bool r.Sweep.Runner.ideal);
      ("cycles", J.Int r.Sweep.Runner.cycles);
      ("committed", J.Int r.Sweep.Runner.committed);
      ("cpi_stack", Stats.cpi_to_json r.Sweep.Runner.cpi) ]

let run_golden_grid () =
  Sweep.Grid.expand Sweep.Grid.golden
  |> List.map Sweep.Runner.run
  |> List.sort Sweep.Runner.compare_order

let record_golden () =
  let rs = run_golden_grid () in
  Out_channel.with_open_text golden_path (fun oc ->
      output_string oc (J.to_string (J.List (List.map golden_of_record rs))));
  Printf.printf "recorded %d golden points to %s\n%!" (List.length rs)
    golden_path

let test_golden_corpus () =
  let text =
    try In_channel.with_open_text golden_path In_channel.input_all
    with Sys_error _ ->
      Alcotest.fail
        "test/sweep_golden.json missing; regenerate with \
         SWEEP_GOLDEN_RECORD=1 dune exec test/test_sweep.exe"
  in
  let golden =
    match J.of_string text with
    | J.List l -> l
    | _ -> Alcotest.fail "sweep_golden.json: expected a list"
  in
  let fresh = run_golden_grid () in
  Alcotest.(check int) "golden corpus covers the 3x2x2 grid" 12
    (List.length golden);
  Alcotest.(check int) "grid size unchanged" (List.length golden)
    (List.length fresh);
  List.iter2
    (fun want (got : Sweep.Runner.record) ->
       let label =
         Printf.sprintf "%s/%s/%s" got.Sweep.Runner.model
           got.Sweep.Runner.target got.Sweep.Runner.workload
       in
       (* the diff is exact: any cycle or CPI-bucket drift anywhere on
          the grid fails with the offending point named *)
       Alcotest.(check bool)
         (label ^ ": cycles and CPI stack match the pinned corpus")
         true
         (golden_of_record got = want))
    golden fresh

let props_suite =
  [ Alcotest.test_case "params: json round-trip" `Quick test_params_roundtrip;
    Alcotest.test_case "params: stable digest" `Quick test_params_digest;
    Alcotest.test_case "grid: expansion" `Quick test_grid_expand;
    Alcotest.test_case "grid: axis values are checked once" `Quick
      test_grid_axis_checks;
    Alcotest.test_case "store: content addressing" `Quick test_store;
    Alcotest.test_case "store: the key covers every input" `Quick
      test_key_covers_every_input;
    Alcotest.test_case "grid: the paper grid renders every table" `Quick
      test_paper_grid;
    Alcotest.test_case "pool: fan-out/fan-in" `Quick test_pool_basic;
    Alcotest.test_case "pool: worker exception" `Quick
      test_pool_worker_exception;
    Alcotest.test_case "pool: timeout kill" `Quick test_pool_timeout;
    Alcotest.test_case "pool: callback exception leaks nothing" `Quick
      test_pool_callback_exception;
    Alcotest.test_case "pool: dead worker is retried" `Quick
      test_pool_worker_death;
    Alcotest.test_case "pool: a worker's Diag crosses intact" `Quick
      test_pool_worker_diag;
    Alcotest.test_case "pool: persistent session failures" `Quick
      test_persistent_failures;
    Alcotest.test_case "driver: nested cache directory" `Quick
      test_driver_nested_cache_dir;
    Alcotest.test_case "store: stale temp sweep" `Quick
      test_store_stale_tmp_sweep;
    Alcotest.test_case "store: failed rename unlinks temp" `Quick
      test_store_rename_failure_unlinks_tmp;
    Alcotest.test_case "driver: cache hits on re-run" `Slow
      test_driver_cache_hits;
    Alcotest.test_case "golden corpus (12-point grid)" `Slow
      test_golden_corpus ]

let () =
  if Sys.getenv_opt "SWEEP_GOLDEN_RECORD" <> None then record_golden ()
  else Alcotest.run "sweep" [ ("sweep", props_suite) ]
