(** [straightd-proto/1] — the wire protocol of the resident simulation
    service.

    One JSON object per line in both directions over the daemon's Unix
    socket.  A request names an [op] ("compile", "simulate", "sample",
    "sweep", "status", "shutdown") and may carry a client-chosen ["id"]
    string (default ["-"]) that every reply echoes.  Replies carry a
    ["type"]: ["event"] (streamed progress: "queued", "coalesced",
    "started", "progress"), ["result"] (terminal success, with the
    payload under ["result"] and a ["cached"] flag), or ["error"]
    (terminal failure: ["code"] a {!Diag.code_name}, ["message"], and a
    ["context"] object when the {!Diag.t} has context).  Schema details
    in EXPERIMENTS.md.

    The parsers below raise {!Diag.Error}: code [Proto_error] for shape
    violations, [Config_error] for well-formed requests naming unknown
    machines/predictors/specs; the server turns it into an ["error"]
    reply. *)

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
  workload : string;   (** a {!Workloads.resolve} spelling *)
  quick : bool;        (** resolve a bare name to its quick program *)
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

val request_id : Json.t -> string
(** The ["id"] field, or ["-"] when it is absent or null.
    @raise Diag.Error with code [Proto_error] when it is present and not
    a string. *)

val request_of_json : Json.t -> request
(** @raise Diag.Error with code [Proto_error] on an unknown op or
    malformed fields, the id included (reply to such a request as
    ["-"]), or [Config_error] on an unknown machine, predictor or
    sample spec. *)

val grid_point : point_req -> Sweep.Grid.point
(** Expand to the concrete grid point (params resolved, workload
    source generated).  @raise Diag.Error code [Config_error] on an
    unknown workload or an out-of-range axis value, as
    {!Sweep.Grid.expand} does. *)

val point_req_of_grid_point : bool -> Sweep.Grid.point -> point_req
(** [point_req_of_grid_point quick pt] — requote a grid point whose
    model is its axes' stock one (no ROB or scheduler override) as a
    request that [grid_point] maps back to [pt]'s content address; the
    workload is its {!Workloads.spelling} ("coremark:1"). *)

val point_req_to_json : point_req -> Json.t
(** Canonical form: also the pool-worker job payload. *)

val point_req_of_json :
  ?require_sample:bool -> Json.t -> point_req
(** @raise Diag.Error as {!request_of_json} (also [Proto_error] when
    [require_sample] and no spec). *)

val reply_event :
  id:string -> event:string ->
  (string * Json.t) list -> Json.t

val reply_result :
  id:string -> op:string -> cached:bool ->
  Json.t -> Json.t

val reply_error : id:string -> Diag.t -> Json.t
(** The ["error"] reply for a {!Diag.t}: {!Sweep.Pool.diag_fields} after
    the schema, id and type. *)
