(* [sampled]: interval-sampled stream on one STRAIGHT and one
   superscalar model, the way [straightsim -sample -j 2] serves it.  The
   cold request runs against an empty store: one ISS pass with
   functional warming writes the interval files, a pool of [procs]
   workers replays them and the estimates are recombined.  The warm
   request repeats it and is served from the store, so it only reads and
   replays.  Shrinking interval files helps the cold request and may
   cost the warm one; this workload shows both. *)

module Params = Ooo_common.Params
module Json = Ooo_common.Stats.Json
module Exp = Straight_core.Experiment
module Interval = Sample.Interval
module Recombine = Sample.Recombine

(* The request of ROADMAP.md's sampled baseline (30.2M-instruction
   stream, interval=1M, warmup=100k, every=4) scaled down tenfold in
   every length: the same warmup share, the same sampled share and
   intervals long enough that per-interval fixed costs stay small, so
   materialization and pool replay split a cold request as they split
   the full-size one (NOTES.md gives both splits). *)
let stream_iterations = 5
let spec = { Sample.Spec.interval = 100_000; warmup = 10_000; every = 4 }
let procs = 2
let floor = 0.02    (* the [straightsim -sample-floor] default *)
let store = Filename.concat "_stackbench" "store"

let requests : (string * Params.t * Exp.target) list =
  [ ("straight-4way/re+", Params.straight_4way, Exp.Straight_re);
    ("ss-4way/riscv", Params.ss_4way, Exp.Riscv) ]

(* Exact simulation of each request's program (cycles, committed
   instructions), recorded once with [driver.exe --record-reference]. *)
let reference =
  [ ("straight-4way/re+", (398965, 1587430)); ("ss-4way/riscv", (315555, 1182908)) ]

let workload () = Workloads.stream ~iterations:stream_iterations ()

let sim_spec (model, target) =
  Snapshot.Sim.spec ~model ~target (workload ())

let record_reference () =
  List.iter
    (fun (label, model, target) ->
       let r =
         Exp.run ~max_dist:Params.straight_max_dist ~model ~target (workload ())
       in
       Printf.printf "(%S, (%d, %d));\n" label r.Exp.cycles r.Exp.committed)
    requests

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun n f -> n + du (Filename.concat path f)) 0
      (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let empty_store () =
  rm_rf store;
  if not (Sys.file_exists "_stackbench") then Unix.mkdir "_stackbench" 0o755;
  Unix.mkdir store 0o755

type input = (string * Snapshot.Sim.spec) list

(* Set-up compiles both images, which puts their static sizes in the
   counts (the pass does not reuse them: materialization and every
   interval replay recompile from the spec the interval files carry),
   and creates an empty store. *)
let setup ~seed:_ : input =
  let w = workload () in
  List.iter
    (fun (_, _, target) ->
       let t =
         match target with
         | Exp.Riscv -> Layer.Riscv
         | Exp.Straight_re ->
           Layer.Straight (Straight_cc.Codegen.Re_plus, Params.straight_max_dist)
         | Exp.Straight_raw ->
           Layer.Straight (Straight_cc.Codegen.Raw, Params.straight_max_dist)
       in
       ignore (Layer.compile t w.Workloads.source : Assembler.Image.t))
    requests;
  empty_store ();
  List.map (fun (label, model, target) -> (label, sim_spec (model, target)))
    requests

let prepare (_ : input) = empty_store ()

type result = {
  r_label : string;
  r_cached : bool;        (* plan served from the store *)
  r_estimate : Recombine.estimate;
}

(* What a pool worker sends back: the interval result, the span it timed
   around its own [run_file] call, its peak RSS, and the reference-loop
   time it measured just before (the workers' speed, which sets the
   pool's, see [Probe.paced_by]). *)
let worker_line path =
  let loop = Probe.loop_time () in
  let t0 = Probe.now () in
  let r = Interval.run_file path in
  let t1 = Probe.now () in
  Json.to_string ~indent:false
    (Json.Obj
       [ ("result", Interval.result_to_json r); ("start", Json.Float t0);
         ("stop", Json.Float t1); ("pid", Json.Int (Unix.getpid ()));
         ("rss_mb", Json.Float (Probe.peak_rss_mb ())); ("loop", Json.Float loop) ])

let on_line ~loops (line : string) : Interval.result =
  let j = Json.of_string line in
  let num k = Option.get (Json.get_float (Json.member k j)) in
  loops := num "loop" :: !loops;
  Span.add_remote ~name:"sample.run_file" ~start:(num "start") ~stop:(num "stop")
    ~track:(int_of_float (num "pid"));
  Probe.note_remote_rss (num "rss_mb");
  Interval.result_of_json (Option.get (Json.member "result" j))

(* One request, like one [straightsim -sample -j 2] invocation: the
   request and each of its intervals count as operations. *)
let request (tally : Layer.tally) ~op (label, sim) : result option =
  Option.join
  @@ Layer.attempt tally ~op ~label (fun () ->
      let plan, cached =
        Span.with_ "sample.materialize" (fun () ->
            Interval.materialize ~dir:store sim spec)
      in
      let entries = Array.of_list plan.Interval.entries in
      let n = Array.length entries in
      let results = Array.make n None in
      tally.Layer.attempted <- tally.Layer.attempted + n;
      flush stdout;
      flush stderr;
      let loops = ref [] in
      let workers_scale () =
        match !loops with
        | [] -> Probe.pace.Probe.scale   (* no worker answered *)
        | l -> Probe.reference_seconds /. Metrics.median l
      in
      Probe.paced_by workers_scale (fun () ->
          Span.with_ "pool" (fun () ->
              Sweep.Pool.run ~jobs:n ~procs
                ~worker:(fun i -> worker_line entries.(i).Interval.path)
                ~on_event:(fun (Sweep.Pool.Retry { reason; _ }) ->
                    Counts.addi "pool.retries" 1;
                    if reason = "worker died" then
                      Counts.addi "pool.worker_deaths" 1)
                ~on_result:(fun i -> function
                    | Ok line -> results.(i) <- Some (on_line ~loops line)
                    | Error msg ->
                      Layer.fail tally
                        ~label:(Printf.sprintf "%s/interval-%d" label i) msg)
                ()));
      match Array.to_list results |> List.filter_map Fun.id with
      | rs when List.length rs = n ->
        let est =
          Span.with_ "sample.recombine" (fun () ->
              Recombine.recombine ~total_insns:plan.Interval.total_retired rs)
        in
        Counts.addi "sample.intervals" n;
        Counts.add "sample.est_cycles" est.Recombine.est_cycles;
        Counts.detail label
          [ ("intervals", float_of_int n);
            ("total_insns", float_of_int est.Recombine.total_insns);
            ("cpi", est.Recombine.cpi); ("ci95", est.Recombine.ci95);
            ("est_cycles", est.Recombine.est_cycles) ];
        Some { r_label = label; r_cached = cached; r_estimate = est }
      | _ -> None)

let pass (input : input) (tally : Layer.tally) : result list =
  let rs =
    List.mapi (fun op r -> request tally ~op r) input |> List.filter_map Fun.id
  in
  Counts.addi "sample.store_bytes" (du store);
  rs

let check (_ : input) (cold : result list) (warm : result list) =
  List.concat_map
    (fun (c : result) ->
       let exact_cycles, exact_insns = List.assoc c.r_label reference in
       let served =
         match List.find_opt (fun w -> w.r_label = c.r_label) warm with
         | None -> [ "no warm estimate" ]
         | Some w ->
           Check.when_ c.r_cached "cold request was served from the store"
           @ Check.when_ (not w.r_cached) "warm request missed the store"
           @ Check.sampled ~cold:c.r_estimate ~warm:w.r_estimate ~exact_cycles
             ~exact_insns ~floor
       in
       List.map (fun m -> (c.r_label, m)) served)
    cold
