(* Deterministic counts taken at the same boundaries as the spans, in
   every run, traced or not: simulated statistics, static code sizes,
   allocated words, verdicts.  A speed-only change must leave all of
   them unchanged.

   [totals] sums each counter over the current phase (a set-up or a
   pass); [details] keeps one record per operation, e.g. the cycles and
   CPI buckets of each simulated configuration. *)

let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let details : (string * (string * float) list) list ref = ref []

let reset () =
  Hashtbl.reset totals;
  details := []

let add name v =
  Hashtbl.replace totals name
    (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))

let addi name n = add name (float_of_int n)
let detail label fields = details := (label, fields) :: !details

type snapshot = {
  sums : (string * float) list;                   (* sorted by name *)
  ops : (string * (string * float) list) list;    (* in operation order *)
}

let snapshot () =
  { sums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
           |> List.sort compare;
    ops = List.rev !details }

(* Set-up and pass counters of one run, summed by name. *)
let merge (a : snapshot) (b : snapshot) : snapshot =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
       Hashtbl.replace tbl k
         (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
    (a.sums @ b.sums);
  { sums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
           |> List.sort compare;
    ops = a.ops @ b.ops }
