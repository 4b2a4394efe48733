(* Cycle-level simulation driver: compile a MiniC file (or a built-in
   workload) for a chosen Table-I model and report timing statistics.

     straightsim [-model ss-2way|straight-2way|ss-4way|straight-4way]
                 [-target straight|straight-re|straight-raw|riscv|ss]
                 [-tage] [-ideal] [-maxdist N] [-rob N] [-sched N] [-no-check]
                 [-inject all|flip,tag,spurious,stretch] [-seed N]
                 [-inject-period N] [-dump-on-error FILE]
                 [-stats-json FILE] [-checkpoint FILE]
                 [-checkpoint-every N] [-stop-at N] [-restore FILE]
                 [-fast-forward N] [-warm]
                 [-sample interval=1M,warmup=100k[,every=K]] [-j N]
                 [-store DIR] [-sample-json FILE] [-sample-check]
                 [-sample-floor F]
                 [-workload NAME] [FILE]

   Fast-forward: [-fast-forward N] skips the first N retired
   instructions at functional-simulation speed and runs the detailed
   model over the rest; with [-warm] the skipped prefix functionally
   warms the caches, branch predictor and RAS before the handoff (cold
   otherwise).

   Sampling: [-sample interval=1M,warmup=100k] slices the run into
   fixed-length intervals, materializes each as a warmed checkpoint
   under the content-addressed store ([-store], default _sweep), fans
   them out over [-j] worker processes, and recombines the per-interval
   CPI stacks into a whole-run estimate with 95% error bars.
   [-sample-json] writes the straight-sample/1 report; [-sample-check]
   additionally simulates the run exactly and fails (exit 1) unless the
   estimate lands within max(ci95, [-sample-floor] x exact CPI) of the
   exact CPI.

   Checkpointing: [-checkpoint FILE] names the snapshot file;
   [-checkpoint-every N] saves it every N cycles; [-stop-at N] saves it
   at cycle N and exits without finishing (a simulated kill, for
   recovery drills); [-restore FILE] resumes a run from a snapshot
   alone — the file embeds the workload source and model, so no other
   flags are needed.  A watchdog deadlock with [-dump-on-error FILE]
   additionally writes a restorable snapshot to FILE.snap.

   Every failure is reported as a structured diagnostic and mapped to a
   distinct exit code per failure class (see Diag.exit_code): 2 usage or
   configuration, 3 compile-family, 4 execution or memory faults, 5 fuel
   exhaustion, 6 simulator deadlock, 7 checker divergence, 9 snapshot
   rejected.  With [-dump-on-error FILE] the diagnostic's
   machine-readable context (for a deadlock: the full pipeline snapshot)
   is also written to FILE ("-" for stderr). *)

module Params = Ooo_common.Params
module Inject = Ooo_common.Inject
module Exp = Straight_core.Experiment
module Diagnostics = Straight_core.Diagnostics
module Engine = Ooo_common.Engine
module Pipeline = Ooo_common.Pipeline
module Stats = Ooo_common.Stats
module Sim = Snapshot.Sim

let workloads : (string * (unit -> Workloads.t)) list =
  [ ("dhrystone", fun () -> Workloads.dhrystone ~iterations:100 ());
    ("coremark", fun () -> Workloads.coremark ~iterations:2 ());
    ("fib", fun () -> Workloads.fib ());
    ("iota", fun () -> Workloads.iota ());
    ("sort", fun () -> Workloads.sort ());
    ("quicksort", fun () -> Workloads.quicksort ());
    ("pointer-chase", fun () -> Workloads.pointer_chase ());
    ("stream", fun () -> Workloads.stream ());
    ("stream-short", fun () -> Workloads.stream ~iterations:1 ());
    ("wasm-sieve", fun () -> Workloads.wasm_sieve ());
    ("wasm-crc32", fun () -> Workloads.wasm_crc32 ());
    ("wasm-expr", fun () -> Workloads.wasm_expr ()) ]

let parse_inject_kinds (s : string) : Inject.kind list =
  if s = "all" then
    [ Inject.Flip_prediction; Inject.Corrupt_cache_tag;
      Inject.Spurious_recovery; Inject.Stretch_fu_latency ]
  else
    String.split_on_char ',' s
    |> List.map (fun k ->
        match String.trim k with
        | "flip" -> Inject.Flip_prediction
        | "tag" -> Inject.Corrupt_cache_tag
        | "spurious" -> Inject.Spurious_recovery
        | "stretch" -> Inject.Stretch_fu_latency
        | other ->
          Printf.eprintf
            "unknown fault kind %s (valid: flip, tag, spurious, stretch, \
             all)\n"
            other;
          exit 2)

let () =
  let model_name = ref "straight-4way" in
  let target_name = ref "straight" in
  let tage = ref false in
  let ideal = ref false in
  let maxdist = ref Params.straight_max_dist in
  let rob = ref 0 in
  let sched = ref (-1) in
  let no_check = ref false in
  let inject = ref "" in
  let seed = ref 1 in
  let inject_period = ref 1000 in
  let dump_on_error = ref "" in
  let stats_json = ref "" in
  let checkpoint = ref "" in
  let checkpoint_every = ref 0 in
  let stop_at = ref 0 in
  let restore = ref "" in
  let fast_forward = ref 0 in
  let warm = ref false in
  let sample = ref "" in
  let jobs = ref 1 in
  let store = ref "_sweep" in
  let sample_json = ref "" in
  let sample_check = ref false in
  let sample_floor = ref 0.02 in
  let workload = ref "" in
  let file = ref "" in
  let spec =
    [ ("-model", Arg.Set_string model_name, "ss-2way|straight-2way|ss-4way|straight-4way");
      ("-target", Arg.Set_string target_name,
       "straight|straight-re|straight-raw|riscv|ss");
      ("-tage", Arg.Set tage, "use the TAGE branch predictor");
      ("-ideal", Arg.Set ideal, "idealize misprediction recovery (fig 13)");
      ("-maxdist", Arg.Set_int maxdist, "maximum source distance (STRAIGHT)");
      ("-rob", Arg.Set_int rob, "override ROB entries");
      ("-sched", Arg.Set_int sched, "override scheduler entries");
      ("-no-check", Arg.Set no_check, "disable the lockstep golden-model checker");
      ("-inject", Arg.Set_string inject,
       "arm fault injection: all or a comma list of flip,tag,spurious,stretch");
      ("-seed", Arg.Set_int seed, "fault-injection seed (default 1)");
      ("-inject-period", Arg.Set_int inject_period,
       "mean opportunities between faults (default 1000)");
      ("-dump-on-error", Arg.Set_string dump_on_error,
       "on failure, write the diagnostic context to FILE (- for stderr)");
      ("-stats-json", Arg.Set_string stats_json,
       "write run statistics (cycles, IPC, CPI stack, mix) as JSON to FILE \
        (- for stdout)");
      ("-checkpoint", Arg.Set_string checkpoint,
       "snapshot file for -checkpoint-every / -stop-at");
      ("-checkpoint-every", Arg.Set_int checkpoint_every,
       "save a checkpoint every N cycles (requires -checkpoint)");
      ("-stop-at", Arg.Set_int stop_at,
       "checkpoint at cycle N and exit without finishing (simulated kill; \
        requires -checkpoint)");
      ("-restore", Arg.Set_string restore,
       "resume from a snapshot file (self-contained: no other flags needed)");
      ("-fast-forward", Arg.Set_int fast_forward,
       "skip the first N retired instructions at functional speed");
      ("-warm", Arg.Set warm,
       "functionally warm caches/predictors over the fast-forwarded prefix");
      ("-sample", Arg.Set_string sample,
       "sampled simulation, e.g. interval=1M,warmup=100k,every=4");
      ("-j", Arg.Set_int jobs, "sampling worker processes (default 1)");
      ("-store", Arg.Set_string store,
       "content-addressed checkpoint store directory (default _sweep)");
      ("-sample-json", Arg.Set_string sample_json,
       "write the sampled-CPI report (straight-sample/1) to FILE (- for \
        stdout)");
      ("-sample-check", Arg.Set sample_check,
       "also simulate exactly and fail unless the estimate is within its \
        error bars");
      ("-sample-floor", Arg.Set_float sample_floor,
       "relative tolerance floor for -sample-check (default 0.02)");
      ("-workload", Arg.Set_string workload, "built-in workload name") ]
  in
  Arg.parse spec (fun f -> file := f) "straightsim [options] [FILE]";
  let model =
    match !model_name with
    | "ss-2way" -> Params.ss_2way
    | "straight-2way" -> Params.straight_2way
    | "ss-4way" -> Params.ss_4way
    | "straight-4way" -> Params.straight_4way
    | m -> Printf.eprintf "unknown model %s\n" m; exit 2
  in
  let model = if !tage then Params.with_tage model else model in
  let model = if !ideal then Params.with_ideal_recovery model else model in
  let model =
    if !rob > 0 then { model with Params.rob_entries = !rob } else model
  in
  let model =
    if !sched >= 0 then { model with Params.scheduler_entries = !sched }
    else model
  in
  let model =
    if !inject = "" then model
    else
      Params.with_faults
        (Inject.plan ~period:!inject_period
           ~kinds:(parse_inject_kinds !inject) !seed)
        model
  in
  let target =
    match Exp.of_name !target_name with
    | Some t -> t
    | None -> Printf.eprintf "unknown target %s\n" !target_name; exit 2
  in
  let resolve_workload () =
    match !workload, !file with
    | "", f when f <> "" ->
      { Workloads.name = Filename.basename f;
        source = In_channel.with_open_text f In_channel.input_all;
        iterations = 1 }
    | "", _ ->
      prerr_endline "need a FILE, -workload, or -restore"; exit 2
    | name, _ ->
      (match List.assoc_opt name workloads with
       | Some mk -> mk ()
       | None ->
         Printf.eprintf "unknown workload %s (valid: %s)\n" name
           (String.concat ", " (List.map fst workloads));
         exit 2)
  in
  let outcome () =
    (* a snapshot is self-contained: -restore rebuilds the workload and
       model from the file and ignores the selection flags *)
    let session =
      if !restore <> "" then Sim.restore !restore
      else
        Sim.start
          (Sim.spec ~max_dist:!maxdist ~check:(not !no_check) ~model ~target
             (resolve_workload ()))
    in
    Sim.drive ~checkpoint_every:!checkpoint_every
      ?checkpoint_path:(if !checkpoint = "" then None else Some !checkpoint)
      ?stop_at:(if !stop_at > 0 then Some !stop_at else None)
      ?deadlock_snapshot:
        (match !dump_on_error with
         | "" | "-" -> None
         | p -> Some (p ^ ".snap"))
      session
  in
  let handle_failure e =
    match Diagnostics.of_exn e with
    | None -> raise e
    | Some d ->
      Printf.eprintf "straightsim: %s\n" (Diagnostics.to_string d);
      (match !dump_on_error with
       | "" -> ()
       | "-" -> prerr_string (Diagnostics.context_dump d)
       | path ->
         Out_channel.with_open_text path (fun oc ->
             output_string oc (Diagnostics.context_dump d));
         Printf.eprintf "straightsim: diagnostic context written to %s\n"
           path);
      exit (Diagnostics.exit_code d.Diagnostics.code)
  in
  let print_cpi_stack stack =
    Printf.printf "CPI stack    : %s\n"
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (Stats.cpi_to_assoc stack)))
  in
  (* -fast-forward: functional skip (optionally warming), then the
     detailed model over the remainder only *)
  let run_fast_forward () =
    let spec =
      Sim.spec ~max_dist:!maxdist ~check:(not !no_check) ~model ~target
        (resolve_workload ())
    in
    let s =
      Pipeline.start_region ~check:spec.Sim.check ~max_dist:!maxdist
        ~warm:!warm ~from:!fast_forward model (Sim.compile spec)
    in
    let engine = s.Pipeline.engine in
    while not (Engine.finished engine) do
      Engine.step engine
    done;
    let committed = Engine.committed_count engine in
    let { Pipeline.stats; output; _ } = Pipeline.finish s in
    Printf.printf "model        : %s\n" model.Params.name;
    Printf.printf "target       : %s\n" (Exp.target_label target);
    Printf.printf "fast-forward : %d instructions (%s handoff)\n"
      !fast_forward (if !warm then "warmed" else "cold");
    Printf.printf "cycles       : %d (measured region only)\n"
      stats.Engine.cycles;
    Printf.printf "instructions : %d\n" committed;
    Printf.printf "IPC          : %.3f\n"
      (float_of_int committed /. float_of_int (max 1 stats.Engine.cycles));
    print_cpi_stack stats.Engine.cpi_stack;
    print_string "--- program output ---\n";
    print_string output
  in
  (* -sample: materialize interval checkpoints, fan out, recombine *)
  let run_sampled () =
    let sp =
      try Sample.Spec.parse !sample
      with Sample.Spec.Parse_error m ->
        Printf.eprintf "straightsim: -sample %S: %s\n" !sample m;
        exit 2
    in
    let w = resolve_workload () in
    let spec =
      Sim.spec ~max_dist:!maxdist ~check:(not !no_check) ~model ~target w
    in
    let plan, cached = Sample.Interval.materialize ~dir:!store spec sp in
    let entries = Array.of_list plan.Sample.Interval.entries in
    Printf.printf "plan %s: %d interval(s) over %d retired insns%s\n"
      (String.sub plan.Sample.Interval.key 0 12)
      (Array.length entries) plan.Sample.Interval.total_retired
      (if cached then " (store hit, ISS pass skipped)" else "");
    flush stdout;
    flush stderr;
    let results = Array.make (Array.length entries) None in
    let failures = ref [] in
    Sweep.Pool.run ~jobs:(Array.length entries)
      ~worker:(fun i ->
          Json.to_string ~indent:false
            (Sample.Interval.result_to_json
               (Sample.Interval.run_file entries.(i).Sample.Interval.path)))
      ~procs:!jobs
      ~on_result:(fun i -> function
          | Ok line ->
            results.(i) <-
              Some
                (Sample.Interval.result_of_json (Json.of_string line))
          | Error msg -> failures := (i, msg) :: !failures)
      ();
    List.iter
      (fun (i, msg) ->
         Printf.eprintf "straightsim: interval %d failed: %s\n" i msg)
      (List.rev !failures);
    if !failures <> [] then exit 4;
    let est =
      Sample.Recombine.recombine
        ~total_insns:plan.Sample.Interval.total_retired
        (Array.to_list results |> List.filter_map Fun.id)
    in
    Printf.printf
      "sampled CPI  : %.4f +/- %.4f (95%% CI, %d intervals, %d of %d insns \
       measured)\n"
      est.Sample.Recombine.cpi est.Sample.Recombine.ci95
      est.Sample.Recombine.intervals est.Sample.Recombine.measured_insns
      est.Sample.Recombine.total_insns;
    Printf.printf "est cycles   : %.0f\n" est.Sample.Recombine.est_cycles;
    Printf.printf "CPI stack    : %s\n"
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%.4f" k v)
            est.Sample.Recombine.stack));
    (if !sample_json <> "" then begin
       let text =
         Json.to_string
           (Sample.Recombine.report_json ~workload:w.Workloads.name
              ~target:(Exp.target_label target) ~spec:sp est)
       in
       match !sample_json with
       | "-" -> print_string text
       | path ->
         Out_channel.with_open_text path (fun oc -> output_string oc text)
     end);
    if !sample_check then begin
      let exact =
        Exp.run ~max_dist:!maxdist ~check:(not !no_check) ~model ~target w
      in
      let v =
        Sample.Recombine.check est ~exact_cycles:exact.Exp.cycles
          ~floor:!sample_floor
      in
      Printf.printf "exact CPI    : %.4f (err %.4f, tolerance %.4f) -> %s\n"
        v.Sample.Recombine.exact_cpi v.Sample.Recombine.err
        v.Sample.Recombine.tolerance
        (if v.Sample.Recombine.ok then "OK" else "FAIL");
      if not v.Sample.Recombine.ok then exit 1
    end
  in
  if !sample <> "" then
    try run_sampled () with
    | Sweep.Pool.Interrupted s -> exit (128 + Sweep.Pool.posix_signal s)
    | e -> handle_failure e
  else if !fast_forward > 0 then
    try run_fast_forward () with e -> handle_failure e
  else
  match outcome () with
  | Sim.Stopped { cycle; path } ->
    Printf.printf "stopped at cycle %d; checkpoint written to %s\n" cycle path
  | Sim.Completed r ->
    let s = r.Exp.stats in
    Printf.printf "model        : %s\n" r.Exp.model;
    Printf.printf "target       : %s\n" (Exp.target_label r.Exp.target);
    Printf.printf "cycles       : %d\n" r.Exp.cycles;
    Printf.printf "instructions : %d\n" r.Exp.committed;
    Printf.printf "IPC          : %.3f\n" r.Exp.ipc;
    Printf.printf "branch misp  : %d (+%d returns)\n" s.Engine.branch_mispredicts
      s.Engine.return_mispredicts;
    Printf.printf "memdep viols : %d\n" s.Engine.memdep_violations;
    Printf.printf "walk stalls  : %d cycles\n" s.Engine.walk_stall_cycles;
    Printf.printf "L1I misses   : %d\n" s.Engine.l1i_misses;
    Printf.printf "L1D misses   : %d / %d accesses\n" s.Engine.l1d_misses
      s.Engine.l1d_accesses;
    Printf.printf "wrong-path   : %d fetched\n" s.Engine.wrong_path_fetched;
    if !inject <> "" then
      Printf.printf "faults       : %d injected (seed %d)\n"
        s.Engine.faults_injected !seed;
    if not !no_check then
      Printf.printf "checked      : %d commits, zero divergence\n"
        s.Engine.commits_checked;
    Printf.printf "mix          : %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.Engine.mix));
    Printf.printf "CPI stack    : %s\n"
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (Stats.cpi_to_assoc s.Engine.cpi_stack)));
    (if !stats_json <> "" then begin
       let json =
         Json.Obj
           [ ("schema", Json.Str "straightsim-stats/1");
             ("model", Json.Str r.Exp.model);
             ("target", Json.Str (Exp.target_label r.Exp.target));
             ("workload", Json.Str r.Exp.workload);
             ("cycles", Json.Int r.Exp.cycles);
             ("instructions", Json.Int r.Exp.committed);
             ("ipc", Json.Float r.Exp.ipc);
             ("cpi_stack", Stats.cpi_to_json s.Engine.cpi_stack);
             ("branch_mispredicts", Json.Int s.Engine.branch_mispredicts);
             ("return_mispredicts", Json.Int s.Engine.return_mispredicts);
             ("memdep_violations", Json.Int s.Engine.memdep_violations);
             ("walk_stall_cycles", Json.Int s.Engine.walk_stall_cycles);
             ("l1i_misses", Json.Int s.Engine.l1i_misses);
             ("l1d_misses", Json.Int s.Engine.l1d_misses);
             ("l1d_accesses", Json.Int s.Engine.l1d_accesses);
             ("wrong_path_fetched", Json.Int s.Engine.wrong_path_fetched);
             ("faults_injected", Json.Int s.Engine.faults_injected);
             ("commits_checked", Json.Int s.Engine.commits_checked);
             ("mix",
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Int v)) s.Engine.mix)) ]
       in
       let text = Json.to_string json in
       match !stats_json with
       | "-" -> print_string text
       | path ->
         Out_channel.with_open_text path (fun oc -> output_string oc text)
     end);
    print_string "--- program output ---\n";
    print_string r.Exp.output
  | exception e -> handle_failure e
