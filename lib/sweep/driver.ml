(* Sweep orchestration (see driver.mli). *)

module J = Json

type summary = {
  total : int;
  executed : int;
  cached : int;
  failed : int;
  wall_seconds : float;
}

let sweep ?(procs = 0) ?(timeout = 600.) ?(retries = 1)
    ?(cache_dir = "_sweep") ?(checkpoint_every = 20_000)
    ?(on_record = fun _ -> ()) ?(on_retry = fun _ ~attempt:_ ~backoff:_ _ -> ())
    (points : Grid.point list) : Runner.record list * summary =
  let t0 = Unix.gettimeofday () in
  let points = Array.of_list points in
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
        Runner.run ~checkpoint:(ckpt_path i) ~checkpoint_every
          ~sample_store:cache_dir points.(i)
        |> Runner.to_json |> J.to_string ~indent:false
      in
      Pool.run ~jobs:(Array.length todo) ~worker ~procs ~timeout ~retries
        ~on_event:(fun (Pool.Retry { job; attempt; backoff; reason }) ->
            on_retry points.(todo.(job)) ~attempt ~backoff reason)
        ~on_interrupt:(fun () -> ignore (Store.sweep_stale ~dir:cache_dir))
        ~on_result:(fun j outcome ->
            let i = todo.(j) in
            match outcome with
            | Ok line ->
              drop_ckpt i;
              finish i (Runner.of_json (J.of_string line))
            | Error msg ->
              incr failed;
              drop_ckpt i;
              let sp = points.(i).Grid.spec in
              Printf.eprintf "sweep: point %s/%s failed: %s\n%!"
                sp.Snapshot.Sim.params.Ooo_common.Params.name
                sp.Snapshot.Sim.workload.Workloads.name msg)
        ();
      (* workers killed mid-checkpoint leave torn temp files *)
      ignore (Store.sweep_stale ~dir:cache_dir)
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

let to_json (grid : J.t) (s : summary) (records : Runner.record list) : J.t =
  J.Obj
    [ ("schema", J.Str "straight-sweep/1");
      ("code_hash", J.Str (Snapshot.File.code_digest ()));
      ("grid", grid);
      ("summary",
       J.Obj
         [ ("total", J.Int s.total);
           ("executed", J.Int s.executed);
           ("cached", J.Int s.cached);
           ("failed", J.Int s.failed);
           ("wall_seconds", J.Float s.wall_seconds) ]);
      ("records", J.List (List.map Runner.to_json records)) ]
