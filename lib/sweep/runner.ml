(* One grid point -> one result record (see runner.mli). *)

module Params = Ooo_common.Params
module Stats = Ooo_common.Stats
module Engine = Ooo_common.Engine
module Exp = Straight_core.Experiment
module Sim = Snapshot.Sim
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
  max_dist : int;
  opt : string;
  params_hash : string;
  cycles : int;
  committed : int;
  ipc : float;
  branch_mispredicts : int;
  cpi : Stats.cpi_stack;
  mix : (string * int) list;
  activity : Engine.activity;
  spadd_stall_slots : int;
  host_seconds : float;
  cached : bool;
  sample : Sample.Spec.t option;
  sample_ci95 : float;
  sample_intervals : int;
}

let base_record (pt : Grid.point) : record =
  let sp = pt.Grid.spec in
  let p = sp.Sim.params in
  { model = p.Params.name;
    target = Exp.target_label sp.Sim.target;
    workload = sp.Sim.workload.Workloads.name;
    iterations = sp.Sim.workload.Workloads.iterations;
    machine = Grid.machine_label pt.Grid.machine;
    width = pt.Grid.width;
    rob = p.Params.rob_entries;
    sched = p.Params.scheduler_entries;
    predictor = Params.predictor_name p.Params.predictor;
    ideal = p.Params.ideal_recovery;
    max_dist = sp.Sim.max_dist;
    opt = Ssa_ir.Passes.opt_name sp.Sim.opt;
    params_hash = Params.digest p;
    cycles = 0;
    committed = 0;
    ipc = 0.;
    branch_mispredicts = 0;
    cpi = Stats.empty_cpi;
    mix = [];
    activity = Engine.fresh_activity ();
    spadd_stall_slots = 0;
    host_seconds = 0.;
    cached = false;
    sample = None;
    sample_ci95 = 0.;
    sample_intervals = 0 }

(* A sampled point: materialize (or hit) the interval store under
   [sample_store], simulate every interval sequentially in this worker,
   recombine.  Whole-run cycles are the extrapolated estimate; the CPI
   stack is the recombined per-instruction stack scaled back to cycles.
   Branch mispredicts, the mix, activity and SPADD stalls are not
   collected per interval, so sampled records report 0 (or nothing)
   there. *)
let run_sampled ~sample_store (sp : Sample.Spec.t) (pt : Grid.point) : record =
  let t0 = Unix.gettimeofday () in
  let plan, _cached =
    Sample.Interval.materialize ~dir:sample_store pt.Grid.spec sp
  in
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

let drive ?checkpoint ~checkpoint_every session =
  match
    Sim.drive
      ?checkpoint_every:(Option.map (fun _ -> checkpoint_every) checkpoint)
      ?checkpoint_path:checkpoint session
  with
  | Sim.Completed r -> r
  | Sim.Stopped _ -> assert false (* no stop_at here *)

(* Every exact point runs under the snapshot driver.  With [checkpoint]
   it resumes from the file when it exists (a previous attempt died
   mid-run) and checkpoints every [checkpoint_every] cycles while
   running.  A checkpoint the snapshot layer rejects (corrupt, or taken
   under different inputs — possible only if the caller keyed the path
   wrong, since cache keys cover every spec field and the code digest)
   is deleted and the point starts clean rather than wedging every
   retry. *)
let run ?checkpoint ?(checkpoint_every = 20_000) ?(sample_store = "_sweep")
    (pt : Grid.point) : record =
  match pt.Grid.sample with
  | Some sp -> run_sampled ~sample_store sp pt
  | None ->
    let spec = pt.Grid.spec in
    let t0 = Unix.gettimeofday () in
    let fresh = lazy (Sim.start spec) in
    let r =
      match checkpoint with
      | Some path when Sys.file_exists path ->
        (try drive ?checkpoint ~checkpoint_every (lazy (Sim.resume spec path))
         with Diag.Error d when d.Diag.code = Diag.Snapshot_error ->
           (try Sys.remove path with Sys_error _ -> ());
           drive ?checkpoint ~checkpoint_every fresh)
      | _ -> drive ?checkpoint ~checkpoint_every fresh
    in
    let s = r.Exp.stats in
    { (base_record pt) with
      cycles = r.Exp.cycles;
      committed = r.Exp.committed;
      ipc = r.Exp.ipc;
      branch_mispredicts = s.Engine.branch_mispredicts;
      cpi = s.Engine.cpi_stack;
      mix = s.Engine.mix;
      activity = s.Engine.activity;
      spadd_stall_slots = s.Engine.spadd_stall_slots;
      host_seconds = Unix.gettimeofday () -. t0 }

(* ---------- JSON ---------- *)

let activity_of_json j =
  let a = Engine.fresh_activity () in
  List.iter (fun (name, _, set) -> set a (J.int name j)) Engine.activity_fields;
  a

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
      ("max_dist", J.Int r.max_dist);
      ("opt", J.Str r.opt);
      ("params_hash", J.Str r.params_hash);
      ("cycles", J.Int r.cycles);
      ("committed", J.Int r.committed);
      ("ipc", J.Float r.ipc);
      ("branch_mispredicts", J.Int r.branch_mispredicts);
      ("cpi_stack", Stats.cpi_to_json r.cpi);
      ("mix", Stats.mix_to_json r.mix);
      ("activity",
       J.Obj
         (List.map (fun (k, get, _) -> (k, J.Int (get r.activity)))
            Engine.activity_fields));
      ("spadd_stall_slots", J.Int r.spadd_stall_slots);
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
    max_dist = J.int "max_dist" j;
    opt = J.string "opt" j;
    params_hash = J.string "params_hash" j;
    cycles = J.int "cycles" j;
    committed = J.int "committed" j;
    ipc = J.float "ipc" j;
    branch_mispredicts = J.int "branch_mispredicts" j;
    cpi = Stats.cpi_of_json (J.field "cpi_stack" j);
    mix = Stats.mix_of_json (J.field "mix" j);
    activity = activity_of_json (J.field "activity" j);
    spadd_stall_slots = J.int "spadd_stall_slots" j;
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
    (a.workload, a.iterations, a.machine, a.width, a.predictor, a.ideal,
     a.rob, a.sched, a.opt, -a.max_dist, a.model, sample_label a)
    (b.workload, b.iterations, b.machine, b.width, b.predictor, b.ideal,
     b.rob, b.sched, b.opt, -b.max_dist, b.model, sample_label b)
