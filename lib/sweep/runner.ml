(* One grid point -> one result record (see runner.mli). *)

module Params = Ooo_common.Params
module Stats = Ooo_common.Stats
module Engine = Ooo_common.Engine
module Exp = Straight_core.Experiment
module J = Json

type record = {
  model : string;
  target : string;
  workload : string;
  iterations : int;
  machine : string;
  width : int;
  rob : int;
  sched : int;
  predictor : string;
  ideal : bool;
  params_hash : string;
  cycles : int;
  committed : int;
  ipc : float;
  branch_mispredicts : int;
  cpi : Stats.cpi_stack;
  host_seconds : float;
  cached : bool;
  sample : Sample.Spec.t option;
  sample_ci95 : float;
  sample_intervals : int;
}

let base_record (pt : Grid.point) : record =
  let p = pt.Grid.params in
  { model = p.Params.name;
    target = Exp.target_label pt.Grid.target;
    workload = pt.Grid.workload.Workloads.name;
    iterations = pt.Grid.workload.Workloads.iterations;
    machine = Grid.machine_label pt.Grid.machine;
    width = pt.Grid.width;
    rob = p.Params.rob_entries;
    sched = p.Params.scheduler_entries;
    predictor = Params.predictor_name p.Params.predictor;
    ideal = p.Params.ideal_recovery;
    params_hash = Params.digest p;
    cycles = 0;
    committed = 0;
    ipc = 0.;
    branch_mispredicts = 0;
    cpi = Stats.empty_cpi;
    host_seconds = 0.;
    cached = false;
    sample = None;
    sample_ci95 = 0.;
    sample_intervals = 0 }

(* A sampled point: materialize (or hit) the interval store under
   [sample_store], simulate every interval sequentially in this worker,
   recombine.  Whole-run cycles are the extrapolated estimate; the CPI
   stack is the recombined per-instruction stack scaled back to cycles.
   Branch-mispredict counts are not collected per interval, so sampled
   records report 0 there. *)
let run_sampled ~sample_store (sp : Sample.Spec.t) (pt : Grid.point) : record =
  let t0 = Unix.gettimeofday () in
  let spec =
    Snapshot.Sim.spec ~model:pt.Grid.params ~target:pt.Grid.target
      pt.Grid.workload
  in
  let plan, _cached = Sample.Interval.materialize ~dir:sample_store spec sp in
  let results =
    List.map
      (fun (e : Sample.Interval.entry) ->
         Sample.Interval.run_file e.Sample.Interval.path)
      plan.Sample.Interval.entries
  in
  let total_insns = plan.Sample.Interval.total_retired in
  let est = Sample.Recombine.recombine ~total_insns results in
  let scale v = int_of_float (Float.round (v *. float_of_int total_insns)) in
  let cpi =
    match est.Sample.Recombine.stack with
    | [ ("base", b); ("frontend", f); ("branch_squash", bs); ("memory", m);
        ("structural", s) ] ->
      { Stats.base = scale b; frontend = scale f; branch_squash = scale bs;
        memory = scale m; structural = scale s }
    | _ -> Stats.empty_cpi
  in
  { (base_record pt) with
    cycles = scale est.Sample.Recombine.cpi;
    committed = total_insns;
    ipc = 1.0 /. est.Sample.Recombine.cpi;
    cpi;
    host_seconds = Unix.gettimeofday () -. t0;
    sample = Some sp;
    sample_ci95 = est.Sample.Recombine.ci95;
    sample_intervals = est.Sample.Recombine.intervals }

(* With [checkpoint], the point runs under the snapshot driver: resume
   from the file when it exists (a previous attempt died mid-run),
   checkpoint every [checkpoint_every] cycles while running.  A
   checkpoint the snapshot layer rejects (corrupt, or taken under
   different inputs — possible only if the caller keyed the path wrong,
   since cache keys cover params, workload, and code digest) is deleted
   and the point starts clean rather than wedging every retry. *)
let run ?checkpoint ?(checkpoint_every = 20_000) ?(sample_store = "_sweep")
    (pt : Grid.point) : record =
  match pt.Grid.sample with
  | Some sp -> run_sampled ~sample_store sp pt
  | None ->
  let p = pt.Grid.params in
  let t0 = Unix.gettimeofday () in
  let r =
    match checkpoint with
    | None -> Exp.run ~model:p ~target:pt.Grid.target pt.Grid.workload
    | Some path ->
      let spec =
        Snapshot.Sim.spec ~model:p ~target:pt.Grid.target pt.Grid.workload
      in
      let go restore_from =
        match
          Snapshot.Sim.run ?restore_from ~checkpoint_every
            ~checkpoint_path:path spec
        with
        | Snapshot.Sim.Completed r -> r
        | Snapshot.Sim.Stopped _ -> assert false (* no stop_at here *)
      in
      (match
         if Sys.file_exists path then
           try Ok (go (Some path))
           with Diag.Error d when d.Diag.code = Diag.Snapshot_error ->
             Error d
         else Ok (go None)
       with
       | Ok r -> r
       | Error _ ->
         (try Sys.remove path with Sys_error _ -> ());
         go None)
  in
  let host_seconds = Unix.gettimeofday () -. t0 in
  { (base_record pt) with
    cycles = r.Exp.cycles;
    committed = r.Exp.committed;
    ipc = r.Exp.ipc;
    branch_mispredicts = r.Exp.stats.Engine.branch_mispredicts;
    cpi = r.Exp.stats.Engine.cpi_stack;
    host_seconds }

let to_json (r : record) : J.t =
  J.Obj
    ([ ("model", J.Str r.model);
      ("target", J.Str r.target);
      ("workload", J.Str r.workload);
      ("iterations", J.Int r.iterations);
      ("machine", J.Str r.machine);
      ("width", J.Int r.width);
      ("rob", J.Int r.rob);
      ("sched", J.Int r.sched);
      ("predictor", J.Str r.predictor);
      ("ideal", J.Bool r.ideal);
      ("params_hash", J.Str r.params_hash);
      ("cycles", J.Int r.cycles);
      ("committed", J.Int r.committed);
      ("ipc", J.Float r.ipc);
      ("branch_mispredicts", J.Int r.branch_mispredicts);
      ("cpi_stack", Stats.cpi_to_json r.cpi);
      ("host_seconds", J.Float r.host_seconds);
      ("cached", J.Bool r.cached) ]
     @
     (match r.sample with
      | None -> []
      | Some sp ->
        [ ("sample", Sample.Spec.to_json sp);
          ("sample_ci95", J.Float r.sample_ci95);
          ("sample_intervals", J.Int r.sample_intervals) ]))

let of_json (j : J.t) : record =
  { model = J.string "model" j;
    target = J.string "target" j;
    workload = J.string "workload" j;
    iterations = J.int "iterations" j;
    machine = J.string "machine" j;
    width = J.int "width" j;
    rob = J.int "rob" j;
    sched = J.int "sched" j;
    predictor = J.string "predictor" j;
    ideal = J.bool "ideal" j;
    params_hash = J.string "params_hash" j;
    cycles = J.int "cycles" j;
    committed = J.int "committed" j;
    ipc = J.float "ipc" j;
    branch_mispredicts = J.int "branch_mispredicts" j;
    cpi = Stats.cpi_of_json (J.field "cpi_stack" j);
    host_seconds = J.float "host_seconds" j;
    cached = J.bool "cached" j;
    sample =
      (match J.member "sample" j with
       | None -> None
       | Some sj ->
         (try Some (Sample.Spec.of_json sj)
          with Sample.Spec.Parse_error m ->
            J.fail "sweep record: bad sample spec: %s" m));
    sample_ci95 = Option.value ~default:0. (J.opt J.float "sample_ci95" j);
    sample_intervals =
      Option.value ~default:0 (J.opt J.int "sample_intervals" j) }

let sample_label (r : record) =
  match r.sample with None -> "" | Some sp -> Sample.Spec.to_string sp

let compare_order (a : record) (b : record) =
  compare
    (a.workload, a.machine, a.width, a.predictor, a.ideal, a.rob, a.sched,
     sample_label a)
    (b.workload, b.machine, b.width, b.predictor, b.ideal, b.rob, b.sched,
     sample_label b)
