(* Interval-checkpoint materialization and execution.  See interval.mli
   for the one-pass warming design and the store layout. *)

module Bin = Ooo_common.Bin
module Engine = Ooo_common.Engine
module Params = Ooo_common.Params
module Stats = Ooo_common.Stats
module Warm = Ooo_common.Warm
module Uop_io = Ooo_common.Uop_io
module Trace = Iss.Trace
module Exp = Straight_core.Experiment
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
  let manifest =
    String.concat "\n"
      [ "straight-sample-key/1";
        Params.digest spec.Sim.params;
        Exp.target_label spec.Sim.target;
        spec.Sim.workload.Workloads.name;
        string_of_int spec.Sim.workload.Workloads.iterations;
        Digest.to_hex (Digest.string spec.Sim.workload.Workloads.source);
        Spec.to_string sp;
        string_of_int spec.Sim.max_insns;
        string_of_int spec.Sim.max_dist;
        string_of_bool spec.Sim.check;
        File.code_digest () ]
  in
  Digest.to_hex (Digest.string manifest)

(* ---------- checkpoint files ---------- *)

let reject path fmt =
  Printf.ksprintf
    (fun reason ->
       Diag.error
         ~context:[ ("snapshot", path); ("reason", reason) ]
         Diag.Snapshot_error "cannot use interval checkpoint %s: %s" path
         reason)
    fmt

let meta_of_spec (spec : Sim.spec) ~kind ~trace_digest : File.meta =
  { File.kind;
    target = Exp.target_label spec.Sim.target;
    params_json =
      Json.to_string ~indent:false (Params.to_json spec.Sim.params);
    workload_name = spec.Sim.workload.Workloads.name;
    workload_source = spec.Sim.workload.Workloads.source;
    workload_iterations = spec.Sim.workload.Workloads.iterations;
    max_insns = spec.Sim.max_insns;
    max_dist = spec.Sim.max_dist;
    check = spec.Sim.check;
    cycle = 0;
    committed = 0;
    trace_digest;
    output = "";
    retired = 0;
    dist_histogram = [||] }

let write_checkpoint (spec : Sim.spec) ~path ~index ~start ~len ~warmup
    ~(warm_snap : string) (uops : Trace.uop array) =
  let payload = Buffer.create (65536 + (String.length warm_snap)) in
  Bin.w_string payload warm_snap;
  Bin.w_int payload (Array.length uops);
  Array.iter (Uop_io.write payload) uops;
  let kind = File.Interval { index; start; len; warmup } in
  File.save path
    (meta_of_spec spec ~kind ~trace_digest:(Trace.digest uops))
    ~payload:(Buffer.contents payload)

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
  if not (Sys.file_exists path) then None
  else
    match
      (try
         let ic = open_in_bin path in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         Some s
       with Sys_error _ | End_of_file -> None)
    with
    | None -> None
    | Some s ->
      (match plan_of_json (Json.of_string s) with
       | p when p.key = key -> Some p
       | _ | (exception Json.Parse_error _) -> None)

(* ---------- materialization ---------- *)

(* One open collection window: the warmed state was snapshotted at
   [w_substart]; uops accumulate (reversed) until the window closes at
   [w_start + interval - 1] or the program halts. *)
type window = {
  w_index : int;
  w_start : int;
  w_substart : int;
  w_snap : string;
  mutable w_buf : Trace.uop list;
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
    let next_index = ref 0 in
    let next_start = ref 0 in
    let open_windows = ref [] in
    let entries = ref [] in
    let path_of index = Filename.concat sdir (Printf.sprintf "%s.i%d.snap" key index) in
    let close (w : window) =
      let uops = Array.of_list (List.rev w.w_buf) in
      let warmup = w.w_start - w.w_substart in
      let len = Array.length uops - warmup in
      (* a window that ended before its measured region began holds only
         warmup — nothing to measure, drop it *)
      if len > 0 then begin
        let path = path_of w.w_index in
        write_checkpoint spec ~path ~index:w.w_index ~start:w.w_start ~len
          ~warmup ~warm_snap:w.w_snap uops;
        entries :=
          { index = w.w_index; start = w.w_start; len; warmup; path }
          :: !entries
      end
    in
    let on_retire idx u =
      (* open every window whose warmed-state snapshot belongs at this
         retirement (multiple can coincide at 0 when warmup >= period) *)
      while idx = max 0 (!next_start - sp.Spec.warmup) do
        let b = Buffer.create 65536 in
        Warm.save b warm;
        open_windows :=
          { w_index = !next_index; w_start = !next_start; w_substart = idx;
            w_snap = Buffer.contents b; w_buf = [] }
          :: !open_windows;
        incr next_index;
        next_start := !next_start + period
      done;
      List.iter
        (fun w ->
           if idx < w.w_start + sp.Spec.interval then w.w_buf <- u :: w.w_buf)
        !open_windows;
      let closing, still =
        List.partition
          (fun w -> idx = w.w_start + sp.Spec.interval - 1)
          !open_windows
      in
      List.iter close closing;
      open_windows := still;
      Warm.observe warm u
    in
    let total_retired =
      (Iss.Machine.run ~max_insns:spec.Sim.max_insns ~on_retire image)
        .Trace.retired
    in
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
    reject path "this is an engine-image checkpoint, not a sampling interval"
  | File.Interval { index; start; len; warmup } ->
    let spec = Sim.spec_of_meta path m in
    let image = Sim.compile spec in
    let warm = Warm.create spec.Sim.params in
    let uops =
      try
        let warm_snap = Bin.r_string r in
        let wr = Bin.reader warm_snap in
        Warm.load wr warm;
        Bin.expect_end wr;
        let n = Bin.r_int r in
        if n <> warmup + len then
          raise
            (Bin.Corrupt
               (Printf.sprintf "stores %d uops, meta promises %d + %d" n
                  warmup len));
        let uops = Array.init n (fun _ -> Uop_io.read r) in
        Bin.expect_end r;
        uops
      with Bin.Corrupt msg -> reject path "payload: %s" msg
    in
    let digest = Trace.digest uops in
    if digest <> m.File.trace_digest then
      reject path "stored sub-trace digest %s differs from meta digest %s"
        digest m.File.trace_digest;
    let checker =
      Ooo_common.Pipeline.checker ~check:spec.Sim.check
        ~max_dist:spec.Sim.max_dist spec.Sim.params
        ~retired:(Array.length uops)
    in
    let engine =
      Engine.create spec.Sim.params ~window:(Ooo_common.Window.of_array uops)
        ~decode_static:(Iss.Machine.static_uop image) ?checker ~warm ()
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
