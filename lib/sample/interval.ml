(* Interval-checkpoint materialization and execution.  See interval.mli
   for the one-pass warming design and the store layout. *)

module Engine = Ooo_common.Engine
module Stats = Ooo_common.Stats
module Warm = Ooo_common.Warm
module Machine = Iss.Machine
module Trace = Iss.Trace
module Sim = Snapshot.Sim
module File = Snapshot.File

type entry = {
  index : int;
  start : int;
  len : int;
  warmup : int;
  path : string;
}

type plan = {
  key : string;
  total_retired : int;
  entries : entry list;
}

type result = {
  r_index : int;
  r_start : int;
  r_len : int;
  r_warmup : int;
  r_cycles : int;
  r_warm_cycles : int;
  r_cpi : Stats.cpi_stack;
  r_host_seconds : float;
}

(* ---------- content addressing ---------- *)

let plan_key (spec : Sim.spec) (sp : Spec.t) : string =
  Sim.key spec ~fidelity:(Spec.to_string sp)

(* ---------- manifest ---------- *)

let manifest_schema = "straight-sample-plan/1"

let plan_to_json (p : plan) : Json.t =
  Json.Obj
    [ ("schema", Json.Str manifest_schema);
      ("key", Json.Str p.key);
      ("total_retired", Json.Int p.total_retired);
      ("entries",
       Json.List
         (List.map
            (fun e ->
               Json.Obj
                 [ ("index", Json.Int e.index);
                   ("start", Json.Int e.start);
                   ("len", Json.Int e.len);
                   ("warmup", Json.Int e.warmup);
                   ("path", Json.Str e.path) ])
            p.entries)) ]

let plan_of_json (j : Json.t) : plan =
  if Json.string "schema" j <> manifest_schema then
    Json.fail "not a %s manifest" manifest_schema;
  let entry e =
    { index = Json.int "index" e;
      start = Json.int "start" e;
      len = Json.int "len" e;
      warmup = Json.int "warmup" e;
      path = Json.string "path" e }
  in
  { key = Json.string "key" j;
    total_retired = Json.int "total_retired" j;
    entries =
      (match Json.field "entries" j with
       | Json.List es -> List.map entry es
       | _ -> Json.fail "field \"entries\" must be a list") }

let load_manifest path key : plan option =
  match
    In_channel.with_open_bin path In_channel.input_all
    |> Json.of_string |> plan_of_json
  with
  | p when p.key = key -> Some p
  | _ | (exception (Sys_error _ | Json.Parse_error _)) -> None

(* ---------- materialization ---------- *)

(* One open collection window: the warm tables and the ISS state were
   saved at its first retirement [w_substart]; the digest takes every
   uop until the window closes at [w_start + interval - 1] or the
   program halts. *)
type window = {
  w_index : int;
  w_start : int;
  w_substart : int;
  w_payload : string;
  w_digest : Trace.digest_state;
  mutable w_uops : int;
}

let materialize ~dir (spec : Sim.spec) (sp : Spec.t) : plan * bool =
  let key = plan_key spec sp in
  let sdir = Filename.concat dir "sample" in
  let manifest_path = Filename.concat sdir (key ^ ".plan.json") in
  match load_manifest manifest_path key with
  | Some p when List.for_all (fun e -> Sys.file_exists e.path) p.entries ->
    (p, true)
  | _ ->
    File.mkdir_p sdir;
    let image = Sim.compile spec in
    let warm = Warm.create spec.Sim.params in
    let period = sp.Spec.every * sp.Spec.interval in
    let open_windows = ref [] in
    let entries = ref [] in
    let close (w : window) =
      let warmup = w.w_start - w.w_substart in
      let len = w.w_uops - warmup in
      (* a window that ended before its measured region began holds only
         warmup — nothing to measure, drop it *)
      if len > 0 then begin
        let path =
          Filename.concat sdir (Printf.sprintf "%s.i%d.snap" key w.w_index)
        in
        let kind =
          File.Interval { index = w.w_index; start = w.w_start; len; warmup }
        in
        File.save path
          (Sim.meta spec ~kind ~trace_digest:(Trace.digest_result w.w_digest)
             ~digested:w.w_uops)
          ~payload:w.w_payload;
        entries :=
          { index = w.w_index; start = w.w_start; len; warmup; path }
          :: !entries
      end
    in
    (* Windows open in start order and all run [interval] retirements
       past their start, so they close in the order they opened: the
       oldest is the only one that can close at a given retirement.
       Nothing here allocates per retirement. *)
    let rec feed u = function
      | [] -> ()
      | w :: rest ->
        Trace.digest_add w.w_digest u;
        w.w_uops <- w.w_uops + 1;
        feed u rest
    in
    let on_retire idx u =
      Warm.observe warm u;
      match !open_windows with
      | [] -> ()
      | oldest :: still as ws ->
        feed u ws;
        if idx = oldest.w_start + sp.Spec.interval - 1 then begin
          close oldest;
          open_windows := still
        end
    in
    let s = Machine.start ~max_insns:spec.Sim.max_insns ~on_retire image in
    (* open each window at its first retirement (several coincide at 0
       when warmup >= period): the warm tables have observed every
       earlier uop, and the ISS stands at that boundary *)
    let rec open_from index start =
      let substart = max 0 (start - sp.Spec.warmup) in
      Machine.run_session ~until:substart s;
      if Machine.retired s = substart && not (Machine.halted s) then begin
        let b = Buffer.create 65536 in
        Warm.save b warm;
        Machine.save b s;
        open_windows :=
          !open_windows
          @ [ { w_index = index; w_start = start; w_substart = substart;
                w_payload = Buffer.contents b;
                w_digest = Trace.digest_init (); w_uops = 0 } ];
        open_from (index + 1) (start + period)
      end
    in
    open_from 0 0;
    Machine.run_session s;
    let total_retired = Machine.retired s in
    (* the program halted with windows still open: truncated intervals *)
    List.iter close !open_windows;
    if total_retired = 0 || !entries = [] then
      Diag.error
        ~context:[ ("workload", spec.Sim.workload.Workloads.name) ]
        Diag.Config_error "workload retired %d instructions: nothing to sample"
        total_retired;
    let p =
      { key; total_retired;
        entries = List.sort (fun a b -> compare a.index b.index) !entries }
    in
    File.write_atomic manifest_path (fun oc ->
        output_string oc (Json.to_string (plan_to_json p)));
    (p, false)

(* ---------- running one interval ---------- *)

let run_file path : result =
  let t0 = Unix.gettimeofday () in
  let m, r = File.load path in
  match m.File.kind with
  | File.Engine_image ->
    File.reject path
      "this is an engine-image checkpoint, not a sampling interval"
  | File.Interval { index; start; len; warmup } ->
    let spec = Sim.spec_of_meta path m in
    let image = Sim.compile spec in
    let warm = Warm.create spec.Sim.params in
    let iss =
      try
        Warm.load r warm;
        let s = Machine.load ~max_insns:spec.Sim.max_insns image r in
        Bin.expect_end r;
        s
      with Bin.Corrupt msg -> File.reject path "payload: %s" msg
    in
    if Machine.retired iss <> start - warmup then
      File.reject path
        "ISS state stands at retirement %d, the window starts at %d"
        (Machine.retired iss) (start - warmup);
    let digest = Trace.digest_init () in
    let engine =
      Ooo_common.Pipeline.region ~check:spec.Sim.check
        ~max_dist:spec.Sim.max_dist ~warm ~digest spec.Sim.params iss
        ~length:(warmup + len)
    in
    (* detailed warmup: simulate until the warmup prefix has committed,
       then snapshot the accounting so the interval is measured alone *)
    while
      Engine.committed_count engine < warmup && not (Engine.finished engine)
    do
      Engine.step engine
    done;
    let warm_cycles = Engine.cycle engine in
    let warm_stack = Engine.cpi_now engine in
    while not (Engine.finished engine) do
      Engine.step engine
    done;
    let stats = Engine.finish engine in
    (* the engine has pulled the whole slice: prove it is the one the
       file was written against *)
    let regenerated = Trace.digest_result digest in
    if regenerated <> m.File.trace_digest then
      File.reject path "regenerated slice digest %s differs from meta digest %s"
        regenerated m.File.trace_digest;
    { r_index = index;
      r_start = start;
      r_len = len;
      r_warmup = warmup;
      r_cycles = stats.Engine.cycles - warm_cycles;
      r_warm_cycles = warm_cycles;
      r_cpi = Stats.cpi_sub stats.Engine.cpi_stack warm_stack;
      r_host_seconds = Unix.gettimeofday () -. t0 }

(* ---------- result transport (pool JSON lines) ---------- *)

let result_to_json (r : result) : Json.t =
  Json.Obj
    [ ("index", Json.Int r.r_index);
      ("start", Json.Int r.r_start);
      ("len", Json.Int r.r_len);
      ("warmup", Json.Int r.r_warmup);
      ("cycles", Json.Int r.r_cycles);
      ("warm_cycles", Json.Int r.r_warm_cycles);
      ("cpi_stack", Stats.cpi_to_json r.r_cpi);
      ("host_seconds", Json.Float r.r_host_seconds) ]

let result_of_json (j : Json.t) : result =
  try
    { r_index = Json.int "index" j;
      r_start = Json.int "start" j;
      r_len = Json.int "len" j;
      r_warmup = Json.int "warmup" j;
      r_cycles = Json.int "cycles" j;
      r_warm_cycles = Json.int "warm_cycles" j;
      r_cpi = Stats.cpi_of_json (Json.field "cpi_stack" j);
      r_host_seconds = Json.float "host_seconds" j }
  with Json.Parse_error reason ->
    Diag.error
      ~context:[ ("json", Json.to_string ~indent:false j) ]
      Diag.Config_error "malformed interval result: %s" reason
