(* Declarative experiment grids over Params.t (see grid.mli). *)

module Params = Ooo_common.Params
module Exp = Straight_core.Experiment
module Sim = Snapshot.Sim
module J = Json

type machine = Ss | Ss_ckpt of int | Straight_raw | Straight_re

let machine_label = function
  | Ss -> "ss"
  | Ss_ckpt n -> Printf.sprintf "ss-ckpt%d" n
  | Straight_raw -> "straight-raw"
  | Straight_re -> "straight-re"

let machine_of_label s =
  match s with
  | "ss" -> Some Ss
  | "straight-raw" -> Some Straight_raw
  | "straight-re" | "straight" -> Some Straight_re
  | _ ->
    if String.length s > 7 && String.sub s 0 7 = "ss-ckpt" then
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some n when n > 0 -> Some (Ss_ckpt n)
      | _ -> None
    else None

type spec = {
  machines : machine list;
  widths : int list;
  robs : int option list;
  scheds : int option list;
  predictors : Params.predictor_kind list;
  ideal : bool list;
  workloads : string list;
  samples : Sample.Spec.t option list;
  quick : bool;
}

type point = {
  spec : Sim.spec;
  machine : machine;
  width : int;
  sample : Sample.Spec.t option;
}

(* ---------- machine-width axis ---------- *)

(* Widths 2 and 4 are the paper's Table-I pairs.  Any other width scales
   the window resources linearly from the per-way density of the 4-way
   models: the paper's scalability argument (Section II-B) is about
   exactly this growth, so the derived models let the sweep probe beyond
   the two evaluated design points. *)
let model_of_width ~straight w =
  match (w, straight) with
  | 2, false -> Params.ss_2way
  | 2, true -> Params.straight_2way
  | 4, false -> Params.ss_4way
  | 4, true -> Params.straight_4way
  | w, _ ->
    let base = if straight then Params.straight_4way else Params.ss_4way in
    let rob = 56 * w in
    let rename =
      match base.Params.rename with
      | Params.Rmt _ -> Params.Rmt { phys_regs = 32 + rob }
      | r -> r
    in
    { base with
      Params.name =
        Printf.sprintf "%s-%dway" (if straight then "STRAIGHT" else "SS") w;
      fetch_width = w + 2;
      issue_width = w;
      commit_width = max 3 w;
      rob_entries = rob;
      scheduler_entries = 24 * w;
      ldq_entries = 18 * w;
      stq_entries = 14 * w;
      n_alu = w;
      n_mul = max 1 (w / 2);
      n_div = 1;
      n_bc = w;
      n_mem = w;
      rename }

(* ---------- expansion ---------- *)

let apply_rob rob (p : Params.t) =
  match rob with
  | None -> p
  | Some n ->
    let rename =
      match p.Params.rename with
      | Params.Rmt _ -> Params.Rmt { phys_regs = 32 + n }
      | Params.Rmt_checkpoint { checkpoints; _ } ->
        Params.Rmt_checkpoint { phys_regs = 32 + n; checkpoints }
      | Params.Rp -> Params.Rp
    in
    { p with Params.rob_entries = n; rename;
      name = Printf.sprintf "%s-rob%d" p.Params.name n }

let apply_sched sched (p : Params.t) =
  match sched with
  | None -> p
  | Some n ->
    { p with Params.scheduler_entries = n;
      name = Printf.sprintf "%s-sched%d" p.Params.name n }

(* The one check of the numeric axes: a machine needs a lane and a ROB
   entry; a 0-entry scheduler stays legal, as the watchdog's hook. *)
let at_least what floor = function
  | Some n when n < floor ->
    Diag.error Diag.Config_error "%s must be at least %d, got %d" what floor n
  | _ -> ()

let model machine ~width ~rob ~sched ~predictor ~ideal =
  at_least "machine width" 1 (Some width);
  at_least "ROB entries" 1 rob;
  at_least "scheduler entries" 0 sched;
  let straight =
    match machine with Ss | Ss_ckpt _ -> false | Straight_raw | Straight_re -> true
  in
  let p = model_of_width ~straight width in
  let p =
    match machine with Ss_ckpt n -> Params.with_checkpoints ~n p | _ -> p
  in
  let p = apply_rob rob p in
  let p = apply_sched sched p in
  let p = match predictor with Params.Tage -> Params.with_tage p | Params.Gshare -> p in
  if ideal then Params.with_ideal_recovery p else p

let point ?max_dist ?opt ?sample machine width model workload =
  let target =
    match machine with
    | Ss | Ss_ckpt _ -> Exp.Riscv
    | Straight_raw -> Exp.Straight_raw
    | Straight_re -> Exp.Straight_re
  in
  { spec = Sim.spec ?max_dist ?opt ~model ~target workload; machine; width; sample }

let expand (s : spec) : point list =
  let ( let* ) xs f = List.concat_map f xs in
  let* machine = s.machines in
  let* width = s.widths in
  let* rob = s.robs in
  let* sched = s.scheds in
  let* predictor = s.predictors in
  let* ideal = s.ideal in
  let* sample = s.samples in
  List.map
    (fun w ->
       point ?sample machine width
         (model machine ~width ~rob ~sched ~predictor ~ideal)
         (Workloads.resolve ~quick:s.quick w))
    s.workloads

(* ---------- presets ---------- *)

let default ~quick =
  { machines = [ Ss; Straight_re ];
    widths = [ 2; 4 ];
    robs = [ None ];
    scheds = [ None ];
    predictors = [ Params.Gshare; Params.Tage ];
    ideal = [ false; true ];
    workloads = [ "dhrystone"; "coremark" ];
    samples = [ None ];
    quick }

let smoke =
  { machines = [ Ss ];
    widths = [ 2 ];
    robs = [ None ];
    scheds = [ None ];
    predictors = [ Params.Gshare ];
    ideal = [ false ];
    workloads = [ "fib"; "quicksort" ];
    samples = [ None ];
    quick = true }

(* The pinned regression grid: quick sizes so `dune runtest` stays
   cheap, axes (width, machine) the fixed golden set in test_stats.ml
   never varies per workload. *)
let golden =
  { machines = [ Ss; Straight_re ];
    widths = [ 2; 4 ];
    robs = [ None ];
    scheds = [ None ];
    predictors = [ Params.Gshare ];
    ideal = [ false ];
    workloads = [ "fib"; "quicksort"; "pointer_chase" ];
    samples = [ None ];
    quick = true }

(* ---------- the paper's evaluation ---------- *)

(* Every configuration of Sections V-VI, at the paper's two widths:
   Figs. 11/12 (both benchmarks, SS vs RAW vs RE+), the Fig. 13
   zero-penalty SS, Fig. 14's TAGE variants, the Section VI-B maximum
   distances, Fig. 17's one-iteration CoreMark power kernel, the
   front-end-depth and IR-level ablations and the ROB sweep (with the
   checkpointed-RMT superscalar of Section II-A).  Duplicates are
   listed once: Fig. 15, the RE+ contribution and the SPADD count read
   the Figs. 11/12 points. *)
let paper ~quick =
  let coremark = Workloads.resolve ~quick "coremark" in
  let stock ?max_dist ?opt ?rob ?(predictor = Params.Gshare) ?(ideal = false)
      ?(w = coremark) machine width =
    point ?max_dist ?opt machine width
      (model machine ~width ~rob ~sched:None ~predictor ~ideal)
      w
  in
  let widths = [ 2; 4 ] and machines = [ Ss; Straight_raw; Straight_re ] in
  let each f = List.concat_map (fun width -> List.map (f width) machines) widths in
  let fe p d =
    point (if p.Params.rename = Params.Rp then Straight_re else Ss) 4
      { p with Params.frontend_depth = d;
        name = Printf.sprintf "%s-fe%d" p.Params.name d }
      coremark
  in
  List.concat_map
    (fun w -> each (fun width m -> stock ~w m width))
    [ Workloads.resolve ~quick "dhrystone"; coremark ]
  @ List.map (fun width -> stock ~ideal:true Ss width) widths
  @ each (fun width m -> stock ~predictor:Params.Tage m width)
  @ List.map (fun d -> stock ~max_dist:d Straight_re 4) [ 1023; 127; 63 ]
  @ List.map
      (fun m -> stock ~w:(Workloads.resolve ~quick "coremark:1") m 2)
      [ Ss; Straight_re ]
  @ [ fe Params.ss_4way 6; fe Params.straight_4way 8 ]
  @ List.concat_map
      (fun opt -> List.map (fun m -> stock ~opt m 4) [ Ss; Straight_re ])
      [ Ssa_ir.Passes.O0; Ssa_ir.Passes.O1 ]
  @ List.concat_map
      (fun rob -> List.map (fun m -> stock ~rob m 4) [ Ss; Ss_ckpt 8; Straight_re ])
      [ 32; 64; 128; 224; 448 ]

let spec_to_json (s : spec) : J.t =
  let list f xs = J.List (List.map f xs) in
  let opt_int = function None -> J.Null | Some n -> J.Int n in
  J.Obj
    [ ("machines", list (fun m -> J.Str (machine_label m)) s.machines);
      ("widths", list (fun w -> J.Int w) s.widths);
      ("robs", list opt_int s.robs);
      ("scheds", list opt_int s.scheds);
      ("predictors", list (fun p -> J.Str (Params.predictor_name p)) s.predictors);
      ("ideal", list (fun b -> J.Bool b) s.ideal);
      ("workloads", list (fun w -> J.Str w) s.workloads);
      ("samples",
       list (function None -> J.Null | Some sp -> Sample.Spec.to_json sp) s.samples);
      ("quick", J.Bool s.quick) ]

let preset ~quick name =
  let spec =
    match name with
    | "default" -> Some (default ~quick)
    | "smoke" -> Some smoke
    | "golden" -> Some golden
    | _ -> None
  in
  (* presets carry their own quick flag; [quick] forces it on *)
  Option.map (fun s -> if quick then { s with quick = true } else s) spec
