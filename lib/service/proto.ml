(* straightd-proto/1: the wire protocol of the resident simulation
   service (see proto.mli and DESIGN.md §13).

   One JSON object per line in both directions.  Requests name an [op];
   replies echo the request [id] and carry a [type] of "event" (streamed
   progress), "result" (terminal success) or "error" (terminal failure,
   with a Diag code name). *)

module Params = Ooo_common.Params
module J = Json
module Grid = Sweep.Grid

let schema = "straightd-proto/1"
let bench_schema = "straightd-bench/1"

(* ---------- requests ---------- *)

type point_req = {
  machine : Grid.machine;
  width : int;
  rob : int option;
  sched : int option;
  predictor : Params.predictor_kind;
  ideal : bool;
  workload : string;
  quick : bool;
  sample : Sample.Spec.t option;
}

type sweep_req = {
  sw_grid : string;
  sw_machines : Grid.machine list option;
  sw_widths : int list option;
  sw_workloads : string list option;
  sw_quick : bool;
}

type request =
  | Compile of { target : string; workload : string; quick : bool }
  | Point of point_req  (* simulate (sample = None) or sample (Some) *)
  | Sweep of sweep_req
  | Status
  | Shutdown

exception Bad_request of Diag.code * string

let bad code fmt = Printf.ksprintf (fun m -> raise (Bad_request (code, m))) fmt

(* The shared field decoders, with a shape error as a [Proto_error]: a
   missing or null optional field takes its default, a present field of
   the wrong type is rejected. *)
let proto dec name j =
  try dec name j with J.Parse_error m -> bad Diag.Proto_error "%s" m

let opt_str_field = proto (J.opt J.string)
let opt_int_field = proto (J.opt J.int)

let str_field ?default name j =
  match default with
  | None -> proto J.string name j
  | Some d -> Option.value ~default:d (opt_str_field name j)

let int_field ~default name j = Option.value ~default (opt_int_field name j)

let bool_field ~default name j =
  Option.value ~default (proto (J.opt J.bool) name j)

let request_id j =
  match J.get_string (J.member "id" j) with Some s -> s | None -> "-"

let point_req_of_json ?(require_sample = false) j : point_req =
  let machine_label = str_field ~default:"ss" "machine" j in
  let machine =
    match Grid.machine_of_label machine_label with
    | Some m -> m
    | None -> bad Diag.Config_error "unknown machine %S" machine_label
  in
  let predictor_name = str_field ~default:"gshare" "predictor" j in
  let predictor =
    match Params.predictor_of_name predictor_name with
    | Some p -> p
    | None -> bad Diag.Config_error "unknown predictor %S" predictor_name
  in
  let sample =
    match opt_str_field "sample" j with
    | None ->
      if require_sample then
        bad Diag.Proto_error "op \"sample\" requires a \"sample\" spec"
      else None
    | Some s ->
      (try Some (Sample.Spec.parse s)
       with Sample.Spec.Parse_error m ->
         bad Diag.Config_error "bad sample spec %S: %s" s m)
  in
  { machine;
    width = int_field ~default:2 "width" j;
    rob = opt_int_field "rob" j;
    sched = opt_int_field "sched" j;
    predictor;
    ideal = bool_field ~default:false "ideal" j;
    workload = str_field "workload" j;
    quick = bool_field ~default:true "quick" j;
    sample }

let split_list s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let sweep_req_of_json j : sweep_req =
  (* an axis override is a comma list in one string *)
  let axis name f =
    Option.map (fun s -> List.map f (split_list s)) (opt_str_field name j)
  in
  let machines =
    axis "machines" (fun m ->
        match Grid.machine_of_label m with
        | Some m -> m
        | None -> bad Diag.Config_error "unknown machine %S" m)
  in
  let widths =
    axis "widths" (fun w ->
        match int_of_string_opt w with
        | Some n -> n
        | None -> bad Diag.Config_error "bad width %S" w)
  in
  let workloads = axis "workloads" Fun.id in
  { sw_grid = str_field ~default:"smoke" "grid" j;
    sw_machines = machines;
    sw_widths = widths;
    sw_workloads = workloads;
    sw_quick = bool_field ~default:true "quick" j }

let request_of_json j : request =
  match j with
  | J.Obj _ ->
    (match str_field "op" j with
     | "compile" ->
       Compile
         { target = str_field ~default:"straight-re" "target" j;
           workload = str_field "workload" j;
           quick = bool_field ~default:true "quick" j }
     | "simulate" -> Point (point_req_of_json j)
     | "sample" -> Point (point_req_of_json ~require_sample:true j)
     | "sweep" -> Sweep (sweep_req_of_json j)
     | "status" -> Status
     | "shutdown" -> Shutdown
     | op -> bad Diag.Proto_error "unknown op %S" op)
  | _ -> bad Diag.Proto_error "request must be a JSON object"

(* ---------- point <-> grid ---------- *)

let grid_point (r : point_req) : Grid.point =
  let spec =
    { Grid.machines = [ r.machine ];
      widths = [ r.width ];
      robs = [ r.rob ];
      scheds = [ r.sched ];
      predictors = [ r.predictor ];
      ideal = [ r.ideal ];
      workloads = [ r.workload ];
      samples = [ r.sample ];
      quick = r.quick }
  in
  match Grid.expand spec with
  | [ pt ] -> pt
  | _ -> assert false (* singleton axes expand to exactly one point *)

let point_req_of_grid_point quick (pt : Grid.point) : point_req =
  let p = pt.Grid.params in
  { machine = pt.Grid.machine;
    width = pt.Grid.width;
    (* rob/sched overrides rename the model ("-robN"), so re-deriving
       them from the expanded params would shift the content address;
       the daemon's sweep op only reaches preset grids, which keep the
       model defaults — [grid_point (point_req_of_grid_point pt)] must
       reproduce [pt]'s digest exactly *)
    rob = None;
    sched = None;
    predictor = p.Params.predictor;
    ideal = p.Params.ideal_recovery;
    workload = pt.Grid.workload.Workloads.name;
    quick;
    sample = pt.Grid.sample }

let point_req_to_json (r : point_req) : J.t =
  J.Obj
    [ ("op", J.Str (if r.sample = None then "simulate" else "sample"));
      ("machine", J.Str (Grid.machine_label r.machine));
      ("width", J.Int r.width);
      ("rob", match r.rob with None -> J.Null | Some n -> J.Int n);
      ("sched", match r.sched with None -> J.Null | Some n -> J.Int n);
      ("predictor", J.Str (Params.predictor_name r.predictor));
      ("ideal", J.Bool r.ideal);
      ("workload", J.Str r.workload);
      ("quick", J.Bool r.quick);
      ("sample",
       match r.sample with
       | None -> J.Null
       | Some sp -> J.Str (Sample.Spec.to_string sp)) ]

(* ---------- replies ---------- *)

let reply_event ~id ~event detail : J.t =
  J.Obj
    ([ ("schema", J.Str schema);
       ("id", J.Str id);
       ("type", J.Str "event");
       ("event", J.Str event) ]
     @ detail)

let reply_result ~id ~op ~cached (result : J.t) : J.t =
  J.Obj
    [ ("schema", J.Str schema);
      ("id", J.Str id);
      ("type", J.Str "result");
      ("op", J.Str op);
      ("cached", J.Bool cached);
      ("result", result) ]

let reply_error ~id code message : J.t =
  J.Obj
    [ ("schema", J.Str schema);
      ("id", J.Str id);
      ("type", J.Str "error");
      ("code", J.Str (Diag.code_name code));
      ("message", J.Str message) ]
