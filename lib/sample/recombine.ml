(* Whole-run estimate from per-interval measurements.  See
   recombine.mli for the statistics. *)

module Stats = Ooo_common.Stats

type estimate = {
  intervals : int;
  measured_insns : int;
  total_insns : int;
  cpi : float;
  se : float;
  ci95 : float;
  est_cycles : float;
  stack : (string * float) list;
  host_seconds : float;
}

(* Per-bucket integer cycle sums recombined exactly like the total.
   Bucket names are the union across every interval, in first-seen
   order — taking them from the first interval alone dropped buckets
   the first interval happened to lack, and a bare [List.assoc] raised
   [Not_found] when a later interval lacked one; a missing bucket
   simply contributes zero cycles. *)
let merge_stacks ~measured_insns (stacks : (string * int) list list) :
  (string * float) list =
  let names =
    List.fold_left
      (fun acc stack ->
         List.fold_left
           (fun acc (name, _) ->
              if List.mem name acc then acc else name :: acc)
           acc stack)
      [] stacks
    |> List.rev
  in
  List.map
    (fun name ->
       let sum =
         List.fold_left
           (fun acc stack ->
              acc + Option.value ~default:0 (List.assoc_opt name stack))
           0 stacks
       in
       (name, float_of_int sum /. float_of_int measured_insns))
    names

let recombine ~total_insns (results : Interval.result list) : estimate =
  if results = [] then
    Diag.error Diag.Config_error "recombine: no interval results";
  (* deterministic order whatever the pool delivered *)
  let rs =
    List.sort
      (fun a b -> compare a.Interval.r_index b.Interval.r_index)
      results
  in
  let measured_insns =
    List.fold_left (fun acc r -> acc + r.Interval.r_len) 0 rs
  in
  if measured_insns <= 0 then
    Diag.error Diag.Config_error "recombine: zero measured instructions";
  let cycles = List.fold_left (fun acc r -> acc + r.Interval.r_cycles) 0 rs in
  let k = List.length rs in
  let cpi = float_of_int cycles /. float_of_int measured_insns in
  let se =
    if k < 2 then 0.0
    else begin
      let cpis =
        List.map
          (fun r ->
             float_of_int r.Interval.r_cycles /. float_of_int r.Interval.r_len)
          rs
      in
      let mean = List.fold_left ( +. ) 0.0 cpis /. float_of_int k in
      let var =
        List.fold_left (fun acc c -> acc +. ((c -. mean) ** 2.0)) 0.0 cpis
        /. float_of_int (k - 1)
      in
      sqrt var /. sqrt (float_of_int k)
    end
  in
  let stack =
    merge_stacks ~measured_insns
      (List.map (fun r -> Stats.cpi_to_assoc r.Interval.r_cpi) rs)
  in
  { intervals = k;
    measured_insns;
    total_insns;
    cpi;
    se;
    ci95 = 1.96 *. se;
    est_cycles = cpi *. float_of_int total_insns;
    stack;
    host_seconds =
      List.fold_left (fun acc r -> acc +. r.Interval.r_host_seconds) 0.0 rs }

let report_json ~workload ~target ~(spec : Spec.t) (e : estimate) : Json.t =
  Json.Obj
    [ ("schema", Json.Str "straight-sample/1");
      ("workload", Json.Str workload);
      ("target", Json.Str target);
      ("spec", Spec.to_json spec);
      ("intervals", Json.Int e.intervals);
      ("measured_insns", Json.Int e.measured_insns);
      ("total_insns", Json.Int e.total_insns);
      ("cpi", Json.Float e.cpi);
      ("se", Json.Float e.se);
      ("ci95", Json.Float e.ci95);
      ("est_cycles", Json.Float e.est_cycles);
      ("cpi_stack",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.stack));
      ("host_seconds", Json.Float e.host_seconds) ]

type verdict = {
  ok : bool;
  exact_cpi : float;
  err : float;
  tolerance : float;
}

let check (e : estimate) ~exact_cycles ~floor : verdict =
  let exact_cpi = float_of_int exact_cycles /. float_of_int e.total_insns in
  let err = Float.abs (e.cpi -. exact_cpi) in
  let tolerance = Float.max e.ci95 (floor *. exact_cpi) in
  { ok = err <= tolerance; exact_cpi; err; tolerance }
