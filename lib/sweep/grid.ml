(* Declarative experiment grids over Params.t (see grid.mli). *)

module Params = Ooo_common.Params
module Exp = Straight_core.Experiment

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
  params : Params.t;
  target : Exp.target;
  workload : Workloads.t;
  machine : machine;
  width : int;
  sample : Sample.Spec.t option;
}

(* ---------- workload axis ---------- *)

let workload_names =
  [ "dhrystone"; "coremark"; "fib"; "iota"; "sort"; "quicksort";
    "pointer_chase"; "wasm_sieve"; "wasm_crc32"; "wasm_expr" ]

let workload ~quick = function
  | "dhrystone" -> Workloads.dhrystone ~iterations:(if quick then 30 else 200) ()
  | "coremark" -> Workloads.coremark ~iterations:(if quick then 2 else 5) ()
  | "fib" -> Workloads.fib ()
  | "iota" -> Workloads.iota ()
  | "sort" -> Workloads.sort ()
  | "quicksort" -> Workloads.quicksort ()
  | "pointer_chase" ->
    if quick then Workloads.pointer_chase ~nodes:256 ~hops:200 ()
    else Workloads.pointer_chase ()
  | "wasm_sieve" ->
    Workloads.wasm_sieve ~limit:(if quick then 400 else 2000) ()
  | "wasm_crc32" ->
    Workloads.wasm_crc32 ~nbytes:(if quick then 64 else 256) ()
  | "wasm_expr" -> Workloads.wasm_expr ~iters:(if quick then 100 else 600) ()
  | name ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " workload_names))

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
  | w, _ when w >= 1 ->
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
  | w, _ -> invalid_arg (Printf.sprintf "invalid machine width %d" w)

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

let point_of ~quick machine width rob sched predictor ideal sample wname =
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
  let p = if ideal then Params.with_ideal_recovery p else p in
  let target =
    match machine with
    | Ss | Ss_ckpt _ -> Exp.Riscv
    | Straight_raw -> Exp.Straight_raw
    | Straight_re -> Exp.Straight_re
  in
  { params = p; target; workload = workload ~quick wname; machine; width;
    sample }

let expand (s : spec) : point list =
  List.concat_map
    (fun machine ->
       List.concat_map
         (fun width ->
            List.concat_map
              (fun rob ->
                 List.concat_map
                   (fun sched ->
                      List.concat_map
                        (fun predictor ->
                           List.concat_map
                             (fun ideal ->
                                List.concat_map
                                  (fun sample ->
                                     List.map
                                       (point_of ~quick:s.quick machine width
                                          rob sched predictor ideal sample)
                                       s.workloads)
                                  s.samples)
                             s.ideal)
                        s.predictors)
                   s.scheds)
              s.robs)
         s.widths)
    s.machines

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
