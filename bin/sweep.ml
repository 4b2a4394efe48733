(* Parallel design-space sweep driver.

     dune exec bin/sweep.exe -- [options]

   Expands a declarative grid over the microarchitectural parameter
   space (Figs. 12-14 axes: machine width, window sizes, rename model,
   predictor, recovery idealization, workload) -- or takes the paper's
   evaluation (-grid paper, Grid.paper) -- fans the points out across a
   fork-based worker pool, streams one JSON line per finished point, and
   aggregates into sweep.json plus, with -figures FILE, the paper's
   tables (FIGURES.md; `make paper`).  Results are content-addressed
   under the cache directory, so a re-run only simulates the points
   whose inputs changed (see EXPERIMENTS.md, "Design-space sweeps").

   In-flight points checkpoint their engine state under
   <cache-dir>/ckpt/ every -checkpoint-every cycles; a retry after a
   worker death resumes from the last checkpoint, and SIGINT/SIGTERM
   reaps every worker and sweeps torn temp files before exiting.

   Exit codes: 0 ok; 1 some points failed; 2 usage error; 3 the
   -expect-cached contract was violated (something simulated);
   128+signal when interrupted by SIGINT/SIGTERM. *)

module Params = Ooo_common.Params
module J = Json

let usage () =
  Printf.eprintf
    "usage: sweep [options]\n\
     \  -j N              worker processes (default: host cores; 0 = in-process)\n\
     \  -grid NAME        preset: default | smoke | golden | paper (the\n\
     \                    paper's evaluation; takes no axis flags)\n\
     \  -quick            small workload iteration counts\n\
     \  -machines LIST    ss,ss-ckptN,straight-raw,straight-re\n\
     \  -widths LIST      issue widths (2 and 4 are the Table-I pairs)\n\
     \  -robs LIST        ROB entries; 'default' keeps the model value\n\
     \  -scheds LIST      scheduler entries; 'default' keeps the model value\n\
     \  -predictors LIST  gshare,tage\n\
     \  -ideal LIST       real,ideal (recovery model)\n\
     \  -workloads LIST   %s\n\
     \  -samples LIST     ';'-separated fidelity axis: exact and/or sampling\n\
     \                    specs like interval=1M,warmup=100k,every=4\n\
     \  -out FILE         aggregated output (default sweep.json)\n\
     \  -figures FILE     render the paper's tables to FILE (default none)\n\
     \  -cache-dir DIR    result cache root (default _sweep)\n\
     \  -timeout SEC      per-point budget before kill+retry (default 600)\n\
     \  -retries N        retries after a failure (default 1)\n\
     \  -checkpoint-every N  cycles between crash-recovery checkpoints\n\
     \                    (default 20000; 0 disables)\n\
     \  -expect-cached    fail (exit 3) if any point had to simulate\n\
     \  -no-stream        suppress the per-point JSONL stream on stdout\n\
     \  -list             print the expanded points and exit\n"
    Workloads.synopsis;
  exit 2

(* An axis value list: comma-separated elements, each through [parse]; a
   bad element is a usage error. *)
let axis what parse v =
  String.split_on_char ',' v
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
      match parse x with
      | Some y -> y
      | None ->
        Printf.eprintf "bad %s %S\n" what x;
        usage ())

let size = function
  | "default" -> Some None
  | v -> Option.map Option.some (int_of_string_opt v)

let recovery = function
  | "real" | "false" | "0" -> Some false
  | "ideal" | "true" | "1" -> Some true
  | _ -> None

(* The axis flags: each overrides one axis of the preset grid. *)
let axes : (string * (string -> Sweep.Grid.spec -> Sweep.Grid.spec)) list =
  let module G = Sweep.Grid in
  let set what parse update v =
    let l = axis what parse v in
    fun s -> update s l
  in
  [ ("-machines", set "machine" G.machine_of_label (fun s l -> { s with G.machines = l }));
    ("-widths", set "width" int_of_string_opt (fun s l -> { s with G.widths = l }));
    ("-robs", set "rob size" size (fun s l -> { s with G.robs = l }));
    ("-scheds", set "scheduler size" size (fun s l -> { s with G.scheds = l }));
    ("-predictors",
     set "predictor" Params.predictor_of_name (fun s l -> { s with G.predictors = l }));
    ("-ideal",
     set "recovery model (want real|ideal)" recovery (fun s l -> { s with G.ideal = l }));
    ("-workloads", set "workload" Option.some (fun s l -> { s with G.workloads = l })) ]

let () =
  let procs = ref (Domain.recommended_domain_count ()) in
  let grid = ref "default" in
  let quick = ref false in
  let spec_override :
    (Sweep.Grid.spec -> Sweep.Grid.spec) list ref = ref [] in
  let out = ref "sweep.json" in
  let figures = ref "none" in
  let cache_dir = ref "_sweep" in
  let timeout = ref 600.0 in
  let retries = ref 1 in
  let checkpoint_every = ref 20_000 in
  let expect_cached = ref false in
  let stream = ref true in
  let list_only = ref false in
  let override f = spec_override := f :: !spec_override in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> procs := n
       | _ -> usage ());
      parse rest
    | "-grid" :: g :: rest -> grid := g; parse rest
    | "-quick" :: rest -> quick := true; parse rest
    | flag :: v :: rest when List.mem_assoc flag axes ->
      override ((List.assoc flag axes) v);
      parse rest
    | "-samples" :: v :: rest ->
      let ss =
        String.split_on_char ';' v
        |> List.filter (fun x -> String.trim x <> "")
        |> List.map (fun x ->
            let x = String.trim x in
            if x = "exact" then None
            else
              try Some (Sample.Spec.parse x)
              with Sample.Spec.Parse_error m ->
                Printf.eprintf "bad sample spec %S: %s\n" x m;
                usage ())
      in
      if ss = [] then usage ();
      override (fun s -> { s with Sweep.Grid.samples = ss });
      parse rest
    | "-out" :: f :: rest -> out := f; parse rest
    | "-figures" :: f :: rest -> figures := f; parse rest
    | "-cache-dir" :: d :: rest -> cache_dir := d; parse rest
    | "-timeout" :: v :: rest ->
      (match float_of_string_opt v with
       | Some t when t > 0. -> timeout := t
       | _ -> usage ());
      parse rest
    | "-retries" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> retries := n
       | _ -> usage ());
      parse rest
    | "-checkpoint-every" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> checkpoint_every := n
       | _ -> usage ());
      parse rest
    | "-expect-cached" :: rest -> expect_cached := true; parse rest
    | "-no-stream" :: rest -> stream := false; parse rest
    | "-list" :: rest -> list_only := true; parse rest
    | ("-help" | "--help") :: _ -> usage ()
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let points, grid_json, quick =
    if !grid = "paper" then begin
      if !spec_override <> [] then begin
        prerr_endline "sweep: -grid paper takes no axis flags";
        usage ()
      end;
      ( Sweep.Grid.paper ~quick:!quick,
        J.Obj [ ("preset", J.Str "paper"); ("quick", J.Bool !quick) ],
        !quick )
    end
    else
      let base_spec =
        match Sweep.Grid.preset ~quick:!quick !grid with
        | Some spec -> spec
        | None ->
          Printf.eprintf "unknown grid %S (default|smoke|golden|paper)\n" !grid;
          usage ()
      in
      let spec =
        List.fold_left (fun s f -> f s) base_spec (List.rev !spec_override)
      in
      match Sweep.Grid.expand spec with
      | points -> (points, Sweep.Grid.spec_to_json spec, spec.Sweep.Grid.quick)
      | exception Diag.Error d ->
        Printf.eprintf "sweep: %s\n" (Diag.to_string d);
        exit (Diag.exit_code d.Diag.code)
  in
  let name (pt : Sweep.Grid.point) =
    let sp = pt.Sweep.Grid.spec in
    ( sp.Snapshot.Sim.params.Params.name,
      Straight_core.Experiment.target_label sp.Snapshot.Sim.target,
      sp.Snapshot.Sim.workload.Workloads.name )
  in
  if !list_only then begin
    List.iter
      (fun pt ->
         let model, target, workload = name pt in
         Printf.printf "%-28s %-14s %-14s %s\n" model target workload
           (Sweep.Store.key pt))
      points;
    Printf.printf "%d points\n" (List.length points);
    exit 0
  end;
  Printf.eprintf "sweep: %d points, %d worker(s), cache %s\n%!"
    (List.length points) !procs !cache_dir;
  let on_record r =
    if !stream then
      print_endline (J.to_string ~indent:false (Sweep.Runner.to_json r))
  in
  let on_retry pt ~attempt ~backoff reason =
    let model, target, workload = name pt in
    if !stream then
      print_endline
        (J.to_string ~indent:false
           (J.Obj
              [ ("event", J.Str "retry");
                ("model", J.Str model);
                ("workload", J.Str workload);
                ("target", J.Str target);
                ("attempt", J.Int attempt);
                ("backoff_seconds", J.Float backoff);
                ("reason", J.Str reason) ]));
    Printf.eprintf "sweep: retrying %s/%s (attempt %d, backoff %.2fs): %s\n%!"
      model workload attempt backoff reason
  in
  let records, summary =
    try
      Sweep.Driver.sweep ~procs:!procs ~timeout:!timeout ~retries:!retries
        ~cache_dir:!cache_dir ~checkpoint_every:!checkpoint_every ~on_record
        ~on_retry points
    with Sweep.Pool.Interrupted s ->
      let n = Sweep.Pool.posix_signal s in
      Printf.eprintf
        "sweep: interrupted by signal %d; workers reaped, completed points \
         cached\n%!" n;
      exit (128 + n)
  in
  let doc = Sweep.Driver.to_json grid_json summary records in
  Snapshot.File.mkdir_p (Filename.dirname !out);
  Out_channel.with_open_text !out (fun oc ->
      output_string oc (J.to_string doc));
  if !figures <> "none" then
    Out_channel.with_open_text !figures (fun oc ->
        output_string oc (Sweep.Figures.render ~quick records));
  Printf.eprintf
    "sweep: %d total, %d simulated, %d cached, %d failed in %.1fs -> %s%s\n%!"
    summary.Sweep.Driver.total summary.Sweep.Driver.executed
    summary.Sweep.Driver.cached summary.Sweep.Driver.failed
    summary.Sweep.Driver.wall_seconds !out
    (if !figures <> "none" then ", " ^ !figures else "");
  if summary.Sweep.Driver.failed > 0 then exit 1;
  if !expect_cached && summary.Sweep.Driver.executed > 0 then begin
    Printf.eprintf
      "sweep: -expect-cached but %d point(s) had to simulate\n%!"
      summary.Sweep.Driver.executed;
    exit 3
  end
