(* Sweep orchestration (see driver.mli). *)

module Params = Ooo_common.Params
module J = Json

type summary = {
  total : int;
  executed : int;
  cached : int;
  failed : int;
  wall_seconds : float;
}

(* remove torn checkpoint temp files a SIGKILLed worker may have left;
   completed checkpoints (".snap", written atomically) stay — they are
   the resume points.  Temp names are "<key>.snap.tmp.<pid>". *)
let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let clean_ckpt_tmp dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
         if contains_sub ~sub:".snap.tmp." f then
           try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let sweep ?(procs = 0) ?(timeout = 600.) ?(retries = 1)
    ?(cache_dir = "_sweep") ?(checkpoint_every = 20_000)
    ?(on_record = fun _ -> ()) ?(on_retry = fun _ ~attempt:_ ~backoff:_ _ -> ())
    (spec : Grid.spec) : Runner.record list * summary =
  let t0 = Unix.gettimeofday () in
  let points = Array.of_list (Grid.expand spec) in
  let keys = Array.map (fun pt -> Store.key pt) points in
  (* serve the cache first; only the delta reaches the pool *)
  let results : Runner.record option array = Array.make (Array.length points) None in
  let todo = ref [] in
  Array.iteri
    (fun i k ->
       match Store.lookup ~dir:cache_dir k with
       | Some r ->
         results.(i) <- Some r;
         on_record r
       | None -> todo := i :: !todo)
    keys;
  let todo = Array.of_list (List.rev !todo) in
  let cached = Array.length points - Array.length todo in
  let failed = ref 0 in
  let finish i (r : Runner.record) =
    Store.save ~dir:cache_dir keys.(i) r;
    results.(i) <- Some r;
    on_record r
  in
  let ckpt_dir = Filename.concat cache_dir "ckpt" in
  let ckpt_path i = Filename.concat ckpt_dir (keys.(i) ^ ".snap") in
  let drop_ckpt i =
    try Sys.remove (ckpt_path i) with Sys_error _ -> ()
  in
  if Array.length todo > 0 then begin
    if procs <= 0 then
      Array.iter
        (fun i -> finish i (Runner.run ~sample_store:cache_dir points.(i)))
        todo
    else begin
      Snapshot.File.mkdir_p ckpt_dir;
      let worker j =
        let i = todo.(j) in
        let r =
          if checkpoint_every > 0 then
            Runner.run ~checkpoint:(ckpt_path i) ~checkpoint_every
              ~sample_store:cache_dir points.(i)
          else Runner.run ~sample_store:cache_dir points.(i)
        in
        J.to_string ~indent:false (Runner.to_json r)
      in
      Pool.run ~jobs:(Array.length todo) ~worker ~procs ~timeout ~retries
        ~on_event:(fun (Pool.Retry { job; attempt; backoff; reason }) ->
            on_retry points.(todo.(job)) ~attempt ~backoff reason)
        ~on_interrupt:(fun () -> clean_ckpt_tmp ckpt_dir)
        ~on_result:(fun j outcome ->
            let i = todo.(j) in
            match outcome with
            | Ok line ->
              drop_ckpt i;
              finish i (Runner.of_json (J.of_string line))
            | Error msg ->
              incr failed;
              drop_ckpt i;
              Printf.eprintf "sweep: point %s/%s failed: %s\n%!"
                points.(i).Grid.params.Params.name
                points.(i).Grid.workload.Workloads.name msg)
        ();
      clean_ckpt_tmp ckpt_dir
    end
  end;
  let records =
    Array.to_list results |> List.filter_map Fun.id
    |> List.sort Runner.compare_order
  in
  ( records,
    { total = Array.length points;
      executed = Array.length todo - !failed;
      cached;
      failed = !failed;
      wall_seconds = Unix.gettimeofday () -. t0 } )

let spec_to_json (s : Grid.spec) : J.t =
  J.Obj
    [ ("machines",
       J.List (List.map (fun m -> J.Str (Grid.machine_label m)) s.Grid.machines));
      ("widths", J.List (List.map (fun w -> J.Int w) s.Grid.widths));
      ("robs",
       J.List
         (List.map
            (function None -> J.Null | Some n -> J.Int n)
            s.Grid.robs));
      ("scheds",
       J.List
         (List.map
            (function None -> J.Null | Some n -> J.Int n)
            s.Grid.scheds));
      ("predictors",
       J.List
         (List.map
            (fun p -> J.Str (Params.predictor_name p))
            s.Grid.predictors));
      ("ideal", J.List (List.map (fun b -> J.Bool b) s.Grid.ideal));
      ("workloads", J.List (List.map (fun w -> J.Str w) s.Grid.workloads));
      ("samples",
       J.List
         (List.map
            (function None -> J.Null | Some sp -> Sample.Spec.to_json sp)
            s.Grid.samples));
      ("quick", J.Bool s.Grid.quick) ]

let to_json (spec : Grid.spec) (s : summary) (records : Runner.record list) :
  J.t =
  J.Obj
    [ ("schema", J.Str "straight-sweep/1");
      ("code_hash", J.Str (Snapshot.File.code_digest ()));
      ("grid", spec_to_json spec);
      ("summary",
       J.Obj
         [ ("total", J.Int s.total);
           ("executed", J.Int s.executed);
           ("cached", J.Int s.cached);
           ("failed", J.Int s.failed);
           ("wall_seconds", J.Float s.wall_seconds) ]);
      ("records", J.List (List.map Runner.to_json records)) ]
