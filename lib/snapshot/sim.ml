(* Checkpointable simulation sessions over the pipeline.  See sim.mli
   for the fixpoint and validation contracts. *)

module Bin = Ooo_common.Bin
module Engine = Ooo_common.Engine
module Params = Ooo_common.Params
module Pipeline = Ooo_common.Pipeline
module Trace = Iss.Trace
module Exp = Straight_core.Experiment
module Compile = Straight_core.Compile

type spec = {
  target : Exp.target;
  params : Params.t;
  workload : Workloads.t;
  max_insns : int;
  max_dist : int;
  check : bool;
}

(* A STRAIGHT image carries its operands as distances, which only the RP
   core reads; an RV32IM image names registers, which only a renaming
   core maps.  Any other pairing would time a run with no operand
   dependences at all. *)
let spec ?(max_insns = 50_000_000) ?(max_dist = Params.straight_max_dist)
    ?(check = true) ~model ~target workload =
  let rp =
    match model.Params.rename with
    | Params.Rp -> true
    | Params.Rmt _ | Params.Rmt_checkpoint _ -> false
  and straight =
    match target with
    | Exp.Straight_raw | Exp.Straight_re -> true
    | Exp.Riscv -> false
  in
  if rp <> straight then begin
    let core rp = if rp then "an RP core" else "a renaming (RMT) core" in
    Diag.error
      ~context:
        [ ("model", model.Params.name); ("target", Exp.target_label target) ]
      Diag.Config_error "%s code needs %s, but model %s is %s"
      (Exp.target_label target) (core straight) model.Params.name (core rp)
  end;
  { target; params = model; workload; max_insns; max_dist; check }

type session = {
  spec : spec;
  image : Assembler.Image.t;
  engine : Engine.t;
  run_info : Trace.run;
  mutable digest : string option;  (* the run's fingerprint, once known *)
}

let compile (s : spec) : Assembler.Image.t =
  (Compile.compile (Exp.codegen ~max_dist:s.max_dist s.target)
     s.workload.Workloads.source).Compile.image

let start (s : spec) : session =
  let image = compile s in
  let { Pipeline.engine; run_info } =
    Pipeline.start ~max_insns:s.max_insns ~check:s.check ~max_dist:s.max_dist
      s.params image
  in
  { spec = s; image; engine; run_info; digest = None }

(* The run's fingerprint: the incremental digest of its retirement
   stream, regenerated by a fresh ISS session in bounded memory.  Only
   save and restore need it — every sweep point and daemon job runs
   through [run] — so a session computes it at most once, on demand. *)
let digest (s : session) : string =
  match s.digest with
  | Some d -> d
  | None ->
    let st = Trace.digest_init () in
    let on_retire _ u = Trace.digest_add st u in
    Iss.Machine.run_session
      (Iss.Machine.start ~max_insns:s.spec.max_insns ~on_retire s.image);
    let d = Trace.digest_result st in
    s.digest <- Some d;
    d

let step s = Engine.step s.engine
let finished s = Engine.finished s.engine
let cycle s = Engine.cycle s.engine

(* ---------- save ---------- *)

let meta_of (s : session) : File.meta =
  { File.kind = File.Engine_image;
    target = Exp.target_label s.spec.target;
    params_json = Json.to_string ~indent:false (Params.to_json s.spec.params);
    workload_name = s.spec.workload.Workloads.name;
    workload_source = s.spec.workload.Workloads.source;
    workload_iterations = s.spec.workload.Workloads.iterations;
    max_insns = s.spec.max_insns;
    max_dist = s.spec.max_dist;
    check = s.spec.check;
    cycle = Engine.cycle s.engine;
    committed = Engine.committed_count s.engine;
    trace_digest = digest s;
    output = s.run_info.Trace.output;
    retired = s.run_info.Trace.retired;
    dist_histogram = s.run_info.Trace.dist_histogram }

let save (s : session) path =
  let b = Buffer.create 65536 in
  Engine.save b s.engine;
  File.save path (meta_of s) ~payload:(Buffer.contents b)

(* ---------- restore ---------- *)

let reject path fmt =
  Printf.ksprintf
    (fun reason ->
       Diag.error
         ~context:[ ("snapshot", path); ("reason", reason) ]
         Diag.Snapshot_error "cannot restore checkpoint %s: %s" path reason)
    fmt

let target_of_label path = function
  | "STRAIGHT(RAW)" -> Exp.Straight_raw
  | "STRAIGHT(RE+)" -> Exp.Straight_re
  | "SS" -> Exp.Riscv
  | l -> reject path "unknown target label %S" l

let spec_of_meta path (m : File.meta) : spec =
  let params =
    try Params.of_json (Json.of_string m.File.params_json)
    with Json.Parse_error msg -> reject path "embedded model: %s" msg
  in
  { target = target_of_label path m.File.target;
    params;
    workload =
      { Workloads.name = m.File.workload_name;
        source = m.File.workload_source;
        iterations = m.File.workload_iterations };
    max_insns = m.File.max_insns;
    max_dist = m.File.max_dist;
    check = m.File.check }

let restore_meta path (m : File.meta) (r : Bin.reader) : session =
  (match m.File.kind with
   | File.Engine_image -> ()
   | File.Interval _ ->
     reject path
       "this is a sampling-interval checkpoint, not an engine image \
        (use straightsim -sample to consume it)");
  let s = spec_of_meta path m in
  let image = compile s in
  let { Pipeline.engine; run_info } =
    try
      Pipeline.resume ~max_insns:s.max_insns ~check:s.check
        ~max_dist:s.max_dist s.params image r
    with Bin.Corrupt msg -> reject path "engine image: %s" msg
  in
  let session = { spec = s; image; engine; run_info; digest = None } in
  (try Bin.expect_end r
   with Bin.Corrupt msg -> reject path "engine image: %s" msg);
  (* prove the regenerated functional run is the one the checkpoint was
     taken against, not merely shaped like it *)
  let digest = digest session in
  if digest <> m.File.trace_digest then
    reject path
      "regenerated trace digest %s differs from checkpoint digest %s \
       (compiler or ISS drift since the checkpoint was taken)"
      digest m.File.trace_digest;
  if session.run_info.Trace.output <> m.File.output then
    reject path "regenerated program output differs from the checkpoint";
  if session.run_info.Trace.retired <> m.File.retired then
    reject path "regenerated run retired %d instructions, checkpoint ran %d"
      session.run_info.Trace.retired m.File.retired;
  if Engine.cycle session.engine <> m.File.cycle then
    reject path "engine image is at cycle %d, meta records %d"
      (Engine.cycle session.engine) m.File.cycle;
  session

let restore path : session =
  let m, r = File.load path in
  restore_meta path m r

let resume (want : spec) path : session =
  let m, r = File.load path in
  let got = spec_of_meta path m in
  if got.target <> want.target then
    reject path "checkpoint targets %s, caller wants %s"
      (Exp.target_label got.target) (Exp.target_label want.target);
  if not (Params.equal got.params want.params) then
    reject path "checkpoint model %S (digest %s) differs from caller's %S \
                 (digest %s)"
      got.params.Params.name (Params.digest got.params)
      want.params.Params.name (Params.digest want.params);
  if got.workload.Workloads.name <> want.workload.Workloads.name
     || got.workload.Workloads.source <> want.workload.Workloads.source
     || got.workload.Workloads.iterations <> want.workload.Workloads.iterations
  then
    reject path "checkpoint workload %S differs from caller's %S"
      got.workload.Workloads.name want.workload.Workloads.name;
  if got.max_insns <> want.max_insns || got.max_dist <> want.max_dist then
    reject path "checkpoint budgets (max_insns %d, max_dist %d) differ from \
                 caller's (%d, %d)"
      got.max_insns got.max_dist want.max_insns want.max_dist;
  if got.check <> want.check then
    reject path "checkpoint %s the lockstep checker, caller %s it"
      (if got.check then "arms" else "omits")
      (if want.check then "arms" else "omits");
  restore_meta path m r

(* ---------- finish ---------- *)

let finish (s : session) : Exp.result =
  let stats = Engine.finish s.engine in
  { Exp.workload = s.spec.workload.Workloads.name;
    model = s.spec.params.Params.name;
    target = s.spec.target;
    cycles = stats.Engine.cycles;
    committed = stats.Engine.committed;
    ipc = stats.Engine.ipc;
    output = s.run_info.Trace.output;
    stats;
    dist_histogram = s.run_info.Trace.dist_histogram }

(* ---------- driver loop ---------- *)

type outcome =
  | Completed of Exp.result
  | Stopped of { cycle : int; path : string }

let drive ?(checkpoint_every = 0) ?checkpoint_path ?stop_at
    ?deadlock_snapshot (s : session) : outcome =
  (match checkpoint_path, checkpoint_every, stop_at with
   | None, n, _ when n > 0 ->
     Diag.error Diag.Config_error
       "checkpoint interval given without a checkpoint path"
   | None, _, Some _ ->
     Diag.error Diag.Config_error
       "a stop cycle was given without a checkpoint path"
   | _ -> ());
  let step_guarded () =
    match deadlock_snapshot with
    | None -> step s
    | Some path ->
      (try step s
       with Diag.Error d when d.Diag.code = Diag.Sim_deadlock ->
         (* the watchdog raises at the cycle boundary, so the wedged
            machine is consistent and restorable *)
         save s path;
         raise
           (Diag.Error
              { d with Diag.context = d.Diag.context @ [ ("snapshot", path) ] }))
  in
  let stopped = ref None in
  while !stopped = None && not (finished s) do
    (match stop_at with
     | Some n when cycle s >= n ->
       let path = Option.get checkpoint_path in
       save s path;
       stopped := Some path
     | _ ->
       step_guarded ();
       if checkpoint_every > 0 && not (finished s)
          && cycle s mod checkpoint_every = 0
       then save s (Option.get checkpoint_path))
  done;
  match !stopped with
  | Some path -> Stopped { cycle = cycle s; path }
  | None -> Completed (finish s)

let run ?checkpoint_every ?checkpoint_path ?restore_from ?stop_at
    ?deadlock_snapshot (sp : spec) : outcome =
  let s =
    match restore_from with
    | Some path -> resume sp path
    | None -> start sp
  in
  drive ?checkpoint_every ?checkpoint_path ?stop_at ?deadlock_snapshot s

let run_restored path : Exp.result =
  let s = restore path in
  while not (finished s) do step s done;
  finish s
