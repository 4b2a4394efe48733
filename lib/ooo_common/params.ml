(* Microarchitectural model parameters (Table I of the paper). *)

type predictor_kind = Gshare | Tage

type cache_params = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

type rename_model =
  | Rmt of { phys_regs : int }
  (* RAM-based register mapping table + free list; misprediction recovery
     walks the ROB at the front-end width (Section V-A). *)
  | Rmt_checkpoint of { phys_regs : int; checkpoints : int }
  (* CAM/checkpointed RMT (Section II-A): recovery restores a checkpoint
     instead of walking, but dispatch stalls when all checkpoints are held
     by in-flight control instructions, and the physical register file
     cannot grow (the paper's ROB-scalability argument). *)
  | Rp
  (* STRAIGHT: operand determination by register-pointer arithmetic
     (Fig. 3); recovery is a single ROB read (Fig. 4). *)

type t = {
  name : string;
  fetch_width : int;
  frontend_depth : int;       (* fetch-to-dispatch latency in cycles *)
  rob_entries : int;
  scheduler_entries : int;
  issue_width : int;          (* scheduler width *)
  commit_width : int;
  ldq_entries : int;
  stq_entries : int;
  n_alu : int;
  n_mul : int;
  n_div : int;
  n_bc : int;                 (* branch units *)
  n_mem : int;
  rename : rename_model;
  predictor : predictor_kind;
  l1i : cache_params;
  l1d : cache_params;
  l2 : cache_params;
  l3 : cache_params option;
  memory_latency : int;
  (* experiment knobs *)
  ideal_recovery : bool;      (* Fig. 13: zero misprediction penalty *)
  latency_alu : int;
  latency_mul : int;
  latency_div : int;
  branch_resolve_latency : int;
  (* issue-to-redirect depth (issue, register read, execute, redirect) *)
  dispatch_issue_latency : int;
  (* dispatch-to-earliest-issue depth (schedule + issue stages, Fig. 2) *)
  inject : Inject.plan option;
  (* seeded fault-injection plan; None = no faults (robustness harness) *)
}

let l1_32k = { size_bytes = 32 * 1024; ways = 4; line_bytes = 64; hit_latency = 4 }
let l2_256k = { size_bytes = 256 * 1024; ways = 4; line_bytes = 64; hit_latency = 12 }
let l3_2m = { size_bytes = 2 * 1024 * 1024; ways = 4; line_bytes = 64; hit_latency = 42 }

(* The "SS" (superscalar RV32IM) and "STRAIGHT" models of Table I.  The
   4-way class models a high-end desktop/server core, the 2-way class a
   small mobile core.  Sizes are equalized between the pair to isolate the
   architectural difference, exactly as in the paper. *)

let base =
  { name = "base";
    fetch_width = 2;
    frontend_depth = 8;
    rob_entries = 64;
    scheduler_entries = 16;
    issue_width = 2;
    commit_width = 3;
    ldq_entries = 48;
    stq_entries = 48;
    n_alu = 2; n_mul = 1; n_div = 1; n_bc = 2; n_mem = 2;
    rename = Rmt { phys_regs = 96 };
    predictor = Gshare;
    l1i = l1_32k; l1d = l1_32k; l2 = l2_256k; l3 = None;
    memory_latency = 200;
    ideal_recovery = false;
    latency_alu = 1; latency_mul = 3; latency_div = 20;
    branch_resolve_latency = 3;
    dispatch_issue_latency = 2;
    inject = None }

let ss_2way = { base with name = "SS-2way" }

let straight_2way =
  { base with
    name = "STRAIGHT-2way";
    frontend_depth = 6;
    rename = Rp }

let ss_4way =
  { base with
    name = "SS-4way";
    fetch_width = 6;
    rob_entries = 224;
    scheduler_entries = 96;
    issue_width = 4;
    commit_width = 4;
    ldq_entries = 72;
    stq_entries = 56;
    n_alu = 4; n_mul = 2; n_div = 1; n_bc = 4; n_mem = 4;
    rename = Rmt { phys_regs = 256 };
    l3 = Some l3_2m }

let straight_4way =
  { ss_4way with
    name = "STRAIGHT-4way";
    frontend_depth = 6;
    rename = Rp }

(* STRAIGHT's maximum source distance for the evaluated models: chosen so
   that max_dist + ROB entries matches the SS physical register file
   (Section V-A: 31 + 64 ~ 96 and 31 + 224 ~ 256). *)
let straight_max_dist = 31

let with_tage p = { p with predictor = Tage; name = p.name ^ "+TAGE" }

(* Checkpointed-RMT variant of a superscalar model (Section II-A). *)
let with_checkpoints ?(n = 8) p =
  match p.rename with
  | Rmt { phys_regs } ->
    { p with rename = Rmt_checkpoint { phys_regs; checkpoints = n };
      name = Printf.sprintf "%s-ckpt%d" p.name n }
  | Rmt_checkpoint _ | Rp -> p

(* Maximum SPADD instructions dispatched per cycle (Section III-B: cascaded
   SPADD computations in one fetch group would stretch the clock, so the
   decoder restricts them by stalling; the paper argues the effect is
   negligible because SPADDs are rare). *)
let spadd_per_cycle = 1
let with_ideal_recovery p =
  { p with ideal_recovery = true; name = p.name ^ "-nopenalty" }

(* Arm a seeded fault-injection plan (robustness campaigns). *)
let with_faults plan p =
  { p with inject = Some plan;
    name = Printf.sprintf "%s-faults@%d" p.name plan.Inject.seed }

(* ---------- JSON round-trip and stable hashing ----------

   The sweep subsystem content-addresses simulation results by
   configuration, so [t] needs a canonical serialization: [to_json] is
   total over every field (including the fault-injection plan), and
   [digest] is the MD5 of the compact rendering — stable across
   processes, unlike [Hashtbl.hash] on a record containing closures'
   worth of nested data.  [of_json] inverts [to_json] exactly;
   [equal] is structural. *)

module J = Json

let cache_to_json (c : cache_params) : J.t =
  J.Obj
    [ ("size_bytes", J.Int c.size_bytes);
      ("ways", J.Int c.ways);
      ("line_bytes", J.Int c.line_bytes);
      ("hit_latency", J.Int c.hit_latency) ]

let cache_of_json j =
  { size_bytes = J.int "size_bytes" j;
    ways = J.int "ways" j;
    line_bytes = J.int "line_bytes" j;
    hit_latency = J.int "hit_latency" j }

let rename_to_json = function
  | Rmt { phys_regs } ->
    J.Obj [ ("kind", J.Str "rmt"); ("phys_regs", J.Int phys_regs) ]
  | Rmt_checkpoint { phys_regs; checkpoints } ->
    J.Obj
      [ ("kind", J.Str "rmt_checkpoint");
        ("phys_regs", J.Int phys_regs);
        ("checkpoints", J.Int checkpoints) ]
  | Rp -> J.Obj [ ("kind", J.Str "rp") ]

let rename_of_json j =
  match J.string "kind" j with
  | "rmt" -> Rmt { phys_regs = J.int "phys_regs" j }
  | "rmt_checkpoint" ->
    Rmt_checkpoint
      { phys_regs = J.int "phys_regs" j; checkpoints = J.int "checkpoints" j }
  | "rp" -> Rp
  | k -> J.fail "unknown rename kind %S" k

let predictor_name = function Gshare -> "gshare" | Tage -> "tage"

let predictor_of_name = function
  | "gshare" -> Some Gshare
  | "tage" -> Some Tage
  | _ -> None

let inject_to_json = function
  | None -> J.Null
  | Some (pl : Inject.plan) ->
    J.Obj
      [ ("seed", J.Int pl.Inject.seed);
        ("period", J.Int pl.Inject.period);
        ("kinds",
         J.List
           (List.map (fun k -> J.Str (Inject.kind_name k)) pl.Inject.kinds)) ]

let inject_of_json j =
  let kind = function
    | J.Str s ->
      (match Inject.kind_of_string s with
       | Some kind -> kind
       | None -> J.fail "unknown fault kind %S" s)
    | _ -> J.fail "fault kind is not a string"
  in
  let kinds =
    match J.field "kinds" j with
    | J.List ks -> List.map kind ks
    | _ -> J.fail "field \"kinds\" must be a list"
  in
  { Inject.seed = J.int "seed" j; period = J.int "period" j; kinds }

let to_json (p : t) : J.t =
  J.Obj
    [ ("name", J.Str p.name);
      ("fetch_width", J.Int p.fetch_width);
      ("frontend_depth", J.Int p.frontend_depth);
      ("rob_entries", J.Int p.rob_entries);
      ("scheduler_entries", J.Int p.scheduler_entries);
      ("issue_width", J.Int p.issue_width);
      ("commit_width", J.Int p.commit_width);
      ("ldq_entries", J.Int p.ldq_entries);
      ("stq_entries", J.Int p.stq_entries);
      ("n_alu", J.Int p.n_alu);
      ("n_mul", J.Int p.n_mul);
      ("n_div", J.Int p.n_div);
      ("n_bc", J.Int p.n_bc);
      ("n_mem", J.Int p.n_mem);
      ("rename", rename_to_json p.rename);
      ("predictor", J.Str (predictor_name p.predictor));
      ("l1i", cache_to_json p.l1i);
      ("l1d", cache_to_json p.l1d);
      ("l2", cache_to_json p.l2);
      ("l3", (match p.l3 with None -> J.Null | Some c -> cache_to_json c));
      ("memory_latency", J.Int p.memory_latency);
      ("ideal_recovery", J.Bool p.ideal_recovery);
      ("latency_alu", J.Int p.latency_alu);
      ("latency_mul", J.Int p.latency_mul);
      ("latency_div", J.Int p.latency_div);
      ("branch_resolve_latency", J.Int p.branch_resolve_latency);
      ("dispatch_issue_latency", J.Int p.dispatch_issue_latency);
      ("inject", inject_to_json p.inject) ]

let of_json (j : J.t) : t =
  { name = J.string "name" j;
    fetch_width = J.int "fetch_width" j;
    frontend_depth = J.int "frontend_depth" j;
    rob_entries = J.int "rob_entries" j;
    scheduler_entries = J.int "scheduler_entries" j;
    issue_width = J.int "issue_width" j;
    commit_width = J.int "commit_width" j;
    ldq_entries = J.int "ldq_entries" j;
    stq_entries = J.int "stq_entries" j;
    n_alu = J.int "n_alu" j;
    n_mul = J.int "n_mul" j;
    n_div = J.int "n_div" j;
    n_bc = J.int "n_bc" j;
    n_mem = J.int "n_mem" j;
    rename = rename_of_json (J.field "rename" j);
    predictor =
      (let s = J.string "predictor" j in
       match predictor_of_name s with
       | Some p -> p
       | None -> J.fail "unknown predictor %S" s);
    l1i = cache_of_json (J.field "l1i" j);
    l1d = cache_of_json (J.field "l1d" j);
    l2 = cache_of_json (J.field "l2" j);
    l3 = Option.map cache_of_json (J.opt J.field "l3" j);
    memory_latency = J.int "memory_latency" j;
    ideal_recovery = J.bool "ideal_recovery" j;
    latency_alu = J.int "latency_alu" j;
    latency_mul = J.int "latency_mul" j;
    latency_div = J.int "latency_div" j;
    branch_resolve_latency = J.int "branch_resolve_latency" j;
    dispatch_issue_latency = J.int "dispatch_issue_latency" j;
    inject = Option.map inject_of_json (J.opt J.field "inject" j) }

(* [t] is first-order data (ints, strings, lists of enums), so the
   structural comparison is exactly configuration equality. *)
let equal (a : t) (b : t) = a = b

let digest (p : t) : string =
  Digest.to_hex (Digest.string (J.to_string ~indent:false (to_json p)))
