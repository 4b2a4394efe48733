(* Spans recorded around each call the benchmark makes into a layer.

   A span holds its name (the layer), start and end on the monotonic
   clock, the span that was open when it began (its parent), the
   operation it belongs to, and its track: 0 for the driver process, a
   worker's pid for spans a pool worker timed itself and sent back with
   its result line.  Spans stay in memory until the run ends.

   A span's self time is its duration minus the part of it that its
   children on the same track cover.  Worker spans run in parallel with
   the driver's pool span, so they never count as covering it; they
   give the pool's busy time instead. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;   (* -1 for a root *)
  op : int;
  track : int;
}

let enabled = ref false
let depth = ref 0   (* layer calls open, traced or not *)
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_op = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  open_ids := [];
  current_op := 0

let set_op op = current_op := op
let current () = match !open_ids with id :: _ -> id | [] -> -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [record name f] runs [f] inside a span named [name]; a plain call
   when tracing is off. *)
let record name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    open_ids := id :: !open_ids;
    let start = Probe.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Probe.now () in
        open_ids := List.tl !open_ids;
        recorded :=
          { id; name; start; stop; parent; op = !current_op; track = 0 }
          :: !recorded)
  end

(* [with_ name f] calls into the layer [name]: a span when tracing, and
   a host-speed sample first when no other layer call is open. *)
let with_ name f =
  if !depth = 0 then Probe.maybe_sample ();
  incr depth;
  Fun.protect (fun () -> record name f) ~finally:(fun () -> decr depth)

(* Record a span timed elsewhere (a pool worker), under the span open
   now. *)
let add_remote ~name ~start ~stop ~track =
  if !enabled then
    recorded :=
      { id = fresh_id (); name; start; stop; parent = current ();
        op = !current_op; track }
      :: !recorded

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Total length of the union of [intervals], each clipped to
   [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
         match cur with
         | None -> (total, Some (a, b))
         | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
         | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span, in seconds. *)
let self_times (spans : t list) : (t * float) list =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s)
    spans;
  List.map
    (fun s ->
       let cover =
         Hashtbl.find_all kids s.id
         |> List.filter (fun c -> c.track = s.track)
         |> List.map (fun c -> (c.start, c.stop))
       in
       (s, duration s -. covered ~lo:s.start ~hi:s.stop cover))
    spans

(* Self seconds summed per span name, over the driver's track only. *)
let self_by_name (spans : t list) : (string * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
       if s.track = 0 then
         Hashtbl.replace tbl s.name
           (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Share of the root spans named [root] that the layer spans below them
   cover: 1 when the layers account for all of the root's wall time. *)
let coverage ~root (spans : t list) : float =
  let wall, self =
    List.fold_left
      (fun (w, sf) (s, self) ->
         if s.name = root && s.track = 0 then (w +. duration s, sf +. self)
         else (w, sf))
      (0., 0.) (self_times spans)
  in
  if wall > 0. then (wall -. self) /. wall else 0.

let to_json (s : t) : Ooo_common.Stats.Json.t =
  let open Ooo_common.Stats.Json in
  Obj
    [ ("id", Int s.id); ("name", Str s.name); ("start", Float s.start);
      ("end", Float s.stop); ("parent", Int s.parent); ("op", Int s.op);
      ("track", Int s.track) ]
