(* The superscalar RV32IM baseline pipeline: the shared engine instantiated
   with RAM-based RMT renaming, an 8-stage front end, and ROB-walk
   misprediction recovery (Section V-A). *)

module Isa = Riscv_isa.Isa
module Encoding = Riscv_isa.Encoding
module Image = Assembler.Image
module Trace = Iss.Trace

(* Wrong-path fetch decodes the static image once: applying
   [static_uop image] builds a table over the text words, and every
   fetch returns the shared entry for its pc. *)
let static_uop (image : Image.t) : int -> Trace.uop option =
  let base = image.Image.text_base in
  let table =
    Array.mapi
      (fun i w ->
         match Encoding.decode w with
         | None | Some Isa.Ebreak -> None
         | Some insn -> Some (Iss.Riscv_iss.uop_shape (base + (4 * i)) insn))
      image.Image.text
  in
  fun pc ->
    if pc >= base && pc < base + (4 * Array.length table) && pc land 3 = 0
    then table.((pc - base) asr 2)
    else None

type result = {
  stats : Ooo_common.Engine.stats;
  output : string;
}

(* A live run: the cycle-level engine plus the functional outcome of the
   run it replays (an ISS pre-pass without a trace completes first; the
   engine then pulls the correct path from a second ISS session through
   a bounded window). *)
type session = {
  engine : Ooo_common.Engine.t;
  run_info : Trace.run;
}

let iss_config ~max_insns =
  { Iss.Riscv_iss.collect_trace = false; max_insns }

(* The functional pre-pass: ISS faults surface here, before any engine
   exists. *)
let prepass ~max_insns ?(until = max_int) image : Trace.run =
  let s = Iss.Riscv_iss.start ~config:(iss_config ~max_insns) image in
  Iss.Riscv_iss.run_session ~until s;
  Iss.Riscv_iss.finish s

(* The window over session [s], whose next retirement is stream index
   0 at absolute retirement [origin]. *)
let window_of s ~origin ~length =
  Ooo_common.Window.of_source ~length
    ~next:(fun () -> Iss.Riscv_iss.step_uop s)
    ~skip:(fun n -> Iss.Riscv_iss.run_session ~until:(origin + n) s)

let stream ~max_insns ~length image =
  window_of ~origin:0 ~length
    (Iss.Riscv_iss.start ~config:(iss_config ~max_insns) image)

(* The ISS doubles as the golden model: unless [check] is false, a
   lockstep checker validates every commit against the stream. *)
let make_checker ~check (params : Ooo_common.Params.t) ~retired =
  if check then
    Some
      (Ooo_common.Checker.create ~rename:params.Ooo_common.Params.rename
         ~retired ())
  else None

let start ?(max_insns = 50_000_000) ?(check = true)
    (params : Ooo_common.Params.t) (image : Image.t) : session =
  let r = prepass ~max_insns image in
  let retired = r.Trace.retired in
  let engine =
    Ooo_common.Engine.create params
      ~window:(stream ~max_insns ~length:retired image)
      ~decode_static:(static_uop image)
      ?checker:(make_checker ~check params ~retired) ()
  in
  { engine; run_info = r }

(* [start_region ~from ?len] fast-forwards functionally over the first
   [from] retirements — warming caches/predictors along the way unless
   [warm] is false — and stands up the timing model over the next [len]
   retirements only (to the end of the program when [len] is omitted).
   The renamer starts with a fresh RMT over the sub-stream: operands
   whose producers precede the region read the architectural file,
   exactly as they would mid-flight with the window drained. *)
let start_region ?(max_insns = 50_000_000) ?(check = true) ?(warm = true)
    ~(from : int) ?len (params : Ooo_common.Params.t) (image : Image.t)
    : session =
  let stop = match len with None -> max_int | Some l -> from + l in
  let r = prepass ~max_insns ~until:stop image in
  let n = r.Trace.retired - from in
  if n <= 0 then
    Diag.error Diag.Config_error
      "region start %d is past the end of the run (%d retired)" from
      r.Trace.retired;
  let w = if warm then Some (Ooo_common.Warm.create params) else None in
  let on_retire =
    Option.map
      (fun w idx u -> if idx < from then Ooo_common.Warm.observe w u)
      w
  in
  let s =
    Iss.Riscv_iss.start ~config:(iss_config ~max_insns) ?on_retire image
  in
  Iss.Riscv_iss.run_session ~until:from s;
  let engine =
    Ooo_common.Engine.create params ~window:(window_of s ~origin:from ~length:n)
      ~decode_static:(static_uop image)
      ?checker:(make_checker ~check params ~retired:n) ?warm:w ()
  in
  { engine; run_info = r }

let resume ?(max_insns = 50_000_000) ?(check = true)
    (params : Ooo_common.Params.t) (image : Image.t)
    (reader : Ooo_common.Bin.reader) : session =
  let r = prepass ~max_insns image in
  let retired = r.Trace.retired in
  let engine =
    Ooo_common.Engine.restore params
      ~window:(stream ~max_insns ~length:retired image)
      ~decode_static:(static_uop image)
      ?checker:(make_checker ~check params ~retired) reader
  in
  { engine; run_info = r }

let finish (s : session) : result =
  { stats = Ooo_common.Engine.finish s.engine;
    output = s.run_info.Trace.output }

let run ?max_insns ?check (params : Ooo_common.Params.t) (image : Image.t)
    : result =
  let s = start ?max_insns ?check params image in
  while not (Ooo_common.Engine.finished s.engine) do
    Ooo_common.Engine.step s.engine
  done;
  finish s
