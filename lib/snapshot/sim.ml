(* Checkpointable simulation sessions over the pipeline.  See sim.mli
   for the fixpoint and validation contracts. *)

module Engine = Ooo_common.Engine
module Params = Ooo_common.Params
module Pipeline = Ooo_common.Pipeline
module Window = Ooo_common.Window
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
  opt : Ssa_ir.Passes.opt_level;
}

(* A STRAIGHT image carries its operands as distances, which only the RP
   core reads; an RV32IM image names registers, which only a renaming
   core maps.  Any other pairing would time a run with no operand
   dependences at all. *)
let spec ?(max_insns = 50_000_000) ?(max_dist = Params.straight_max_dist)
    ?(check = true) ?(opt = Ssa_ir.Passes.O2) ~model ~target workload =
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
  { target; params = model; workload; max_insns; max_dist; check; opt }

(* Every field of the spec, then the fidelity and the executable: two
   runs share a key exactly when they simulate the same thing with the
   same code. *)
let key (s : spec) ~fidelity : string =
  let w = s.workload in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ "straight-run-key/1";
            Params.digest s.params;
            Exp.target_label s.target;
            w.Workloads.name;
            string_of_int w.Workloads.iterations;
            Digest.to_hex (Digest.string w.Workloads.source);
            string_of_int s.max_insns;
            string_of_int s.max_dist;
            string_of_bool s.check;
            Ssa_ir.Passes.opt_name s.opt;
            fidelity;
            File.code_digest () ]))

(* The fingerprint cursor: a second ISS session over the image, with the
   digest of everything it has retired.  A session gets one at its first
   save (or at restore) and only ever moves it forward. *)
type cursor = { iss : Iss.Machine.session; fold : Trace.digest_state }

type session = {
  spec : spec;
  image : Assembler.Image.t;
  engine : Engine.t;
  run_info : Trace.run;
  mutable cursor : cursor option;
}

let compile (s : spec) : Assembler.Image.t =
  (Compile.compile ~opt:s.opt (Exp.codegen ~max_dist:s.max_dist s.target)
     s.workload.Workloads.source).Compile.image

let start (s : spec) : session =
  let image = compile s in
  let { Pipeline.engine; run_info } =
    Pipeline.start ~max_insns:s.max_insns ~check:s.check ~max_dist:s.max_dist
      s.params image
  in
  { spec = s; image; engine; run_info; cursor = None }

(* The digest of retirements [0, upto), advancing the session's cursor
   (created on first use) to [upto] if it stands below: a run that is
   never saved or restored does no digest work, and periodic saves
   fingerprint each retirement once.  Returns the digest and the
   retirements it covers: [upto], or the cursor's position when that is
   further. *)
let fingerprint (s : session) ~upto : string * int =
  let c =
    match s.cursor with
    | Some c -> c
    | None ->
      let fold = Trace.digest_init () in
      let c =
        { iss =
            Iss.Machine.start ~max_insns:s.spec.max_insns
              ~on_retire:(fun _ u -> Trace.digest_add fold u) s.image;
          fold }
      in
      s.cursor <- Some c;
      c
  in
  Iss.Machine.run_session ~until:upto c.iss;
  (Trace.digest_result c.fold, Iss.Machine.retired c.iss)

let step s = Engine.step s.engine
let finished s = Engine.finished s.engine
let cycle s = Engine.cycle s.engine
let engine s = s.engine

(* ---------- save ---------- *)

let meta (sp : spec) ~kind ~trace_digest ~digested : File.meta =
  { File.kind;
    target = Exp.target_label sp.target;
    params_json = Json.to_string ~indent:false (Params.to_json sp.params);
    workload_name = sp.workload.Workloads.name;
    workload_source = sp.workload.Workloads.source;
    workload_iterations = sp.workload.Workloads.iterations;
    max_insns = sp.max_insns;
    max_dist = sp.max_dist;
    check = sp.check;
    opt = Ssa_ir.Passes.opt_name sp.opt;
    cycle = 0;
    committed = 0;
    trace_digest;
    digested;
    output = "";
    retired = 0;
    dist_histogram = [||] }

(* The image names no stream index at or past the window frontier, so
   the prefix below it is all the fingerprint has to cover. *)
let save (s : session) path =
  let trace_digest, digested =
    fingerprint s ~upto:(Window.frontier (Engine.window s.engine))
  in
  let m =
    { (meta s.spec ~kind:File.Engine_image ~trace_digest ~digested) with
      File.cycle = Engine.cycle s.engine;
      committed = Engine.committed_count s.engine;
      output = s.run_info.Trace.output;
      retired = s.run_info.Trace.retired;
      dist_histogram = s.run_info.Trace.dist_histogram }
  in
  let b = Buffer.create 65536 in
  Engine.save b s.engine;
  File.save path m ~payload:(Buffer.contents b)

(* ---------- restore ---------- *)

let reject = File.reject

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
    check = m.File.check;
    opt =
      (match
         List.find_opt
           (fun o -> Ssa_ir.Passes.opt_name o = m.File.opt)
           Ssa_ir.Passes.[ O0; O1; O2 ]
       with
       | Some o -> o
       | None -> reject path "unknown IR level %S" m.File.opt) }

let restore_meta path (m : File.meta) (r : Bin.reader) : session =
  (match m.File.kind with
   | File.Engine_image -> ()
   | File.Interval _ ->
     reject path
       "this is a sampling-interval checkpoint, not an engine image \
        (use straightsim -sample to consume it)");
  (* a fresh session over the regenerated run: its whole outcome must be
     the one the checkpoint recorded *)
  let session = start (spec_of_meta path m) in
  let info = session.run_info in
  if info.Trace.output <> m.File.output then
    reject path "regenerated program output differs from the checkpoint";
  if info.Trace.retired <> m.File.retired then
    reject path "regenerated run retired %d instructions, checkpoint ran %d"
      info.Trace.retired m.File.retired;
  if m.File.digested < m.File.committed || m.File.digested > m.File.retired
  then
    reject path
      "fingerprinted prefix of %d retirements is outside [%d, %d] (committed \
       to retired)"
      m.File.digested m.File.committed m.File.retired;
  (try
     Engine.load r session.engine;
     Bin.expect_end r
   with Bin.Corrupt msg -> reject path "engine image: %s" msg);
  let frontier = Window.frontier (Engine.window session.engine) in
  if frontier > m.File.digested then
    reject path
      "engine image reads retirement %d, past the %d-retirement \
       fingerprinted prefix"
      (frontier - 1) m.File.digested;
  (* prove the regenerated prefix is the one the checkpoint was taken
     against, not merely shaped like it *)
  let digest, _ = fingerprint session ~upto:m.File.digested in
  if digest <> m.File.trace_digest then
    reject path
      "regenerated trace digest %s differs from checkpoint digest %s \
       (compiler or ISS drift since the checkpoint was taken)"
      digest m.File.trace_digest;
  if Engine.cycle session.engine <> m.File.cycle then
    reject path "engine image is at cycle %d, meta records %d"
      (Engine.cycle session.engine) m.File.cycle;
  session

let restore path : session =
  let m, r = File.load path in
  restore_meta path m r

(* what a spec names, for a mismatch message *)
let describe (s : spec) =
  Printf.sprintf "%s (%s) %s on %s x%d, max_insns %d, max_dist %d, checker %s, %s"
    s.params.Params.name (String.sub (Params.digest s.params) 0 8)
    (Exp.target_label s.target) s.workload.Workloads.name
    s.workload.Workloads.iterations s.max_insns s.max_dist
    (if s.check then "on" else "off") (Ssa_ir.Passes.opt_name s.opt)

let resume (want : spec) path : session =
  let m, r = File.load path in
  let got = spec_of_meta path m in
  if key got ~fidelity:"exact" <> key want ~fidelity:"exact" then
    reject path "checkpoint was taken under %s, caller wants %s" (describe got)
      (describe want);
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

(* The options are checked before [s] is forced: a bad combination
   costs no compile and no restore. *)
let drive ?(checkpoint_every = 0) ?checkpoint_path ?stop_at
    ?deadlock_snapshot (s : session Lazy.t) : outcome =
  (match checkpoint_path, checkpoint_every, stop_at with
   | None, n, _ when n > 0 ->
     Diag.error Diag.Config_error
       "checkpoint interval given without a checkpoint path"
   | None, _, Some _ ->
     Diag.error Diag.Config_error
       "a stop cycle was given without a checkpoint path"
   | _ -> ());
  let s = Lazy.force s in
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
