(** [straightd-proto/1] — the wire protocol of the resident simulation
    service.

    One JSON object per line in both directions over the daemon's Unix
    socket.  A request names an [op] ("compile", "simulate", "sample",
    "sweep", "status", "shutdown") and may carry a client-chosen ["id"]
    string (default ["-"]) that every reply echoes.  Replies carry a
    ["type"]: ["event"] (streamed progress: "queued", "coalesced",
    "started", "progress"), ["result"] (terminal success, with the
    payload under ["result"] and a ["cached"] flag), or ["error"]
    (terminal failure, ["code"] a {!Diag.code_name} and ["message"]).
    Schema details in EXPERIMENTS.md. *)

val schema : string
(** ["straightd-proto/1"]. *)

val bench_schema : string
(** ["straightd-bench/1"] — the load generator's report schema. *)

(** A single simulation point: the daemon-facing mirror of
    {!Sweep.Grid.point}, kept in request form so the scheduler can ship
    it to a pool worker verbatim and both sides derive the same
    content address. *)
type point_req = {
  machine : Sweep.Grid.machine;
  width : int;
  rob : int option;
  sched : int option;
  predictor : Ooo_common.Params.predictor_kind;
  ideal : bool;
  workload : string;
  quick : bool;
  sample : Sample.Spec.t option;  (** [Some] = interval-sampled run *)
}

type sweep_req = {
  sw_grid : string;                            (** preset name *)
  sw_machines : Sweep.Grid.machine list option;
  sw_widths : int list option;
  sw_workloads : string list option;
  sw_quick : bool;
}

type request =
  | Compile of { target : string; workload : string; quick : bool }
  | Point of point_req
  | Sweep of sweep_req
  | Status
  | Shutdown

exception Bad_request of Diag.code * string
(** Raised by the parsers below; the server turns it into an ["error"]
    reply ([Proto_error] for shape violations, [Config_error] for
    well-formed requests naming unknown machines/predictors/specs). *)

val request_id : Json.t -> string
(** The ["id"] field, or ["-"]. *)

val request_of_json : Json.t -> request
(** @raise Bad_request on an unknown op or malformed fields. *)

val grid_point : point_req -> Sweep.Grid.point
(** Expand to the concrete grid point (params resolved, workload
    source generated).  @raise Invalid_argument on an unknown workload
    or invalid width, as {!Sweep.Grid.expand} does. *)

val point_req_of_grid_point : bool -> Sweep.Grid.point -> point_req
(** [point_req_of_grid_point quick pt] — requote a preset-grid point as
    a request, such that [grid_point] reproduces [pt]'s content address
    exactly. *)

val point_req_to_json : point_req -> Json.t
(** Canonical form: also the pool-worker job payload. *)

val point_req_of_json :
  ?require_sample:bool -> Json.t -> point_req
(** @raise Bad_request (also when [require_sample] and no spec). *)

val sweep_req_of_json : Json.t -> sweep_req

val reply_event :
  id:string -> event:string ->
  (string * Json.t) list -> Json.t

val reply_result :
  id:string -> op:string -> cached:bool ->
  Json.t -> Json.t

val reply_error :
  id:string -> Diag.code -> string -> Json.t
