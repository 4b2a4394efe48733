(* The out-of-order pipeline for either ISA: the shared engine replaying
   the correct path the image's functional simulator retires.  See
   pipeline.mli. *)

module Image = Assembler.Image
module Trace = Iss.Trace
module Machine = Iss.Machine

type result = {
  stats : Engine.stats;
  output : string;
  dist_histogram : int array;
}

(* A live run: the cycle-level engine plus the functional outcome of the
   run it replays.  A pre-pass of the ISS (no trace) completes before
   the engine exists, so the session holds the output, retired count
   and distance histogram from the start; the engine then pulls the
   correct path from a second ISS session through a bounded window. *)
type session = {
  engine : Engine.t;
  run_info : Trace.run;
}

(* The functional pre-pass: ISS faults surface here, before any engine
   exists. *)
let prepass ~max_insns ?until ~collect_dist image : Trace.run =
  let s = Machine.start ~max_insns ~collect_dist image in
  Machine.run_session ?until s;
  Machine.finish s

(* The window over session [s], whose next retirement is stream index
   0 at absolute retirement [origin]. *)
let window_of s ~origin ~length =
  Window.of_source ~length
    ~next:(fun () -> Machine.step_uop s)
    ~skip:(fun n -> Machine.run_session ~until:(origin + n) s)

let stream ~max_insns ~length image =
  window_of ~origin:0 ~length (Machine.start ~max_insns image)

(* The ISS doubles as the golden model: unless [check] is false, a
   lockstep checker validates every commit against the stream. *)
let checker ~check ~max_dist (params : Params.t) ~retired =
  if check then
    Some (Checker.create ~max_dist ~rename:params.Params.rename ~retired ())
  else None

let start ?(max_insns = 50_000_000) ?(check = true)
    ?(max_dist = Straight_isa.Isa.max_dist) (params : Params.t)
    (image : Image.t) : session =
  let r = prepass ~max_insns ~collect_dist:true image in
  let retired = r.Trace.retired in
  let engine =
    Engine.create params
      ~window:(stream ~max_insns ~length:retired image)
      ~decode_static:(Machine.static_uop image)
      ?checker:(checker ~check ~max_dist params ~retired) ()
  in
  { engine; run_info = r }

(* [start_region ~from ?len] fast-forwards functionally over the first
   [from] retirements — warming caches/predictors along the way unless
   [warm] is false — and stands up the timing model over the next [len]
   retirements only (to the end of the program when [len] is omitted).
   The engine starts at cycle 0 on the sub-stream: operands whose
   producers precede the region resolve as already committed (STRAIGHT)
   or read the architectural file through a fresh RMT (RV32IM), exactly
   as they would mid-flight with the window drained. *)
let start_region ?(max_insns = 50_000_000) ?(check = true)
    ?(max_dist = Straight_isa.Isa.max_dist) ?(warm = true) ~(from : int) ?len
    (params : Params.t) (image : Image.t) : session =
  let stop = match len with None -> max_int | Some l -> from + l in
  let r = prepass ~max_insns ~until:stop ~collect_dist:false image in
  let n = r.Trace.retired - from in
  if n <= 0 then
    Diag.error Diag.Config_error
      "region start %d is past the end of the run (%d retired)" from
      r.Trace.retired;
  let w = if warm then Some (Warm.create params) else None in
  let on_retire =
    Option.map (fun w idx u -> if idx < from then Warm.observe w u) w
  in
  let s = Machine.start ~max_insns ?on_retire image in
  Machine.run_session ~until:from s;
  let engine =
    Engine.create params ~window:(window_of s ~origin:from ~length:n)
      ~decode_static:(Machine.static_uop image)
      ?checker:(checker ~check ~max_dist params ~retired:n) ?warm:w ()
  in
  { engine; run_info = r }

let resume ?(max_insns = 50_000_000) ?(check = true)
    ?(max_dist = Straight_isa.Isa.max_dist) (params : Params.t)
    (image : Image.t) (reader : Bin.reader) : session =
  let r = prepass ~max_insns ~collect_dist:true image in
  let retired = r.Trace.retired in
  let engine =
    Engine.restore params
      ~window:(stream ~max_insns ~length:retired image)
      ~decode_static:(Machine.static_uop image)
      ?checker:(checker ~check ~max_dist params ~retired) reader
  in
  { engine; run_info = r }

let finish (s : session) : result =
  { stats = Engine.finish s.engine;
    output = s.run_info.Trace.output;
    dist_histogram = s.run_info.Trace.dist_histogram }

let run ?max_insns ?check ?max_dist (params : Params.t) (image : Image.t)
    : result =
  let s = start ?max_insns ?check ?max_dist params image in
  while not (Engine.finished s.engine) do
    Engine.step s.engine
  done;
  finish s
