(* straightd's resident server (see server.mli and DESIGN.md §13).

   Single-process event loop: one [Unix.select] watches the listen
   socket, every connected client, and the result pipes of a
   [Sweep.Pool.Persistent] worker session.  Requests are parsed off
   complete lines, served from the content-addressed [_sweep/] store
   when possible, and otherwise turned into pool jobs; identical
   in-flight requests coalesce onto one job, whose single result fans
   out to every waiter.  The server itself never simulates — the loop
   only parses, schedules, and replies, so it stays responsive while
   the workers grind. *)

module Params = Ooo_common.Params
module J = Json
module Grid = Sweep.Grid
module Store = Sweep.Store
module Runner = Sweep.Runner
module Persistent = Sweep.Pool.Persistent
module Compile = Straight_core.Compile
module Exp = Straight_core.Experiment

let max_line = 1 lsl 20 (* a request line this long is an attack, not a job *)

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable alive : bool;
}

type sweep_agg = {
  sa_client : client;
  sa_id : string;
  sa_spec : Grid.spec;  (* the expanded request, overrides included *)
  sa_total : int;
  sa_records : Runner.record option array;
  sa_t0 : float;
  mutable sa_done : int;
  mutable sa_cached : int;
  mutable sa_executed : int;
  mutable sa_failed : int;
}

type waiter =
  | Direct of client * string * string  (* client, request id, op *)
  | Sweep_point of sweep_agg * int      (* aggregate, point index *)

type job = {
  j_id : int;          (* pool job id *)
  j_key : string;      (* store content address *)
  mutable j_waiters : waiter list;
}

type counters = {
  mutable requests : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable simulations : int;
  mutable sim_failures : int;
  mutable compiles : int;
  mutable compile_hits : int;
  mutable stale_swept : int;
}

(* ---------- worker side ---------- *)

(* Runs in a forked pool worker: payload -> one compact record line.
   A [Diag.Error] (deadlock, checker divergence, bad workload) rides the
   pool's "err" path back with its code and context, and the client gets
   the error the command-line tools would report. *)
let worker_job ~cache_dir payload =
  let req = Proto.point_req_of_json (J.of_string payload) in
  let pt = Proto.grid_point req in
  let r = Runner.run ~sample_store:cache_dir pt in
  J.to_string ~indent:false (Runner.to_json r)

(* ---------- compile memoization ---------- *)

let compile_key ~target ~(w : Workloads.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ "straightd-compile/1";
            target;
            w.Workloads.name;
            string_of_int w.Workloads.iterations;
            Digest.to_hex (Digest.string w.Workloads.source);
            Snapshot.File.code_digest () ]))

let compile_doc ~target ~(w : Workloads.t) : J.t =
  let t =
    match Exp.of_name target with
    | Some t -> t
    | None -> Diag.error Diag.Config_error "unknown target %s" target
  in
  let asm =
    Lazy.force
      (Compile.compile (Exp.codegen t) w.Workloads.source).Compile.listing
  in
  J.Obj
    [ ("schema", J.Str "straightd-compile/1");
      ("target", J.Str (Exp.target_label t));
      ("workload", J.Str w.Workloads.name);
      ("iterations", J.Int w.Workloads.iterations);
      ("asm_lines",
       J.Int (List.length (String.split_on_char '\n' asm)));
      ("asm", J.Str asm) ]

(* ---------- server ---------- *)

let run ~socket_path ?(procs = 2) ?(cache_dir = "_sweep")
    ?(timeout_job = 600.) ?(log = fun _ -> ()) () : unit =
  let t0 = Unix.gettimeofday () in
  let ctr =
    { requests = 0; cache_hits = 0; coalesced = 0; simulations = 0;
      sim_failures = 0; compiles = 0; compile_hits = 0; stale_swept = 0 }
  in
  ctr.stale_swept <- Store.sweep_stale ~dir:cache_dir;
  if ctr.stale_swept > 0 then
    log (Printf.sprintf "swept %d stale cache temp file(s)" ctr.stale_swept);
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let listen_fd = ref None in
  (* workers fork from the daemon; they must not pin the listen socket
     or any client connection open past the parent's close *)
  let at_fork () =
    (match !listen_fd with
     | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    Hashtbl.iter
      (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
      clients
  in
  let pool =
    Persistent.create ~procs ~at_fork
      ~worker:(fun payload -> worker_job ~cache_dir payload)
      ()
  in
  (* pool first, socket second: the initial workers never see the fd *)
  let lfd =
    if Sys.file_exists socket_path then begin
      (* a live daemon answers on the path; a dead one left a stale
         inode we can reclaim *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.connect probe (Unix.ADDR_UNIX socket_path) with
       | () ->
         Unix.close probe;
         Persistent.shutdown pool;
         Diag.error Diag.Service_error "daemon already running on %s"
           socket_path
       | exception Unix.Unix_error _ ->
         Unix.close probe;
         (try Unix.unlink socket_path with Unix.Unix_error _ -> ()))
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.bind fd (Unix.ADDR_UNIX socket_path) with
     | () -> ()
     | exception Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Persistent.shutdown pool;
       Diag.error Diag.Service_error "bind %s: %s" socket_path
         (Unix.error_message e));
    Unix.listen fd 64;
    fd
  in
  listen_fd := Some lfd;
  (* a client gone mid-write must not SIGPIPE the daemon; SIGINT/SIGTERM
     drain into the same graceful-shutdown path as the shutdown op *)
  let stop = ref false in
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle (fun _ -> stop := true)))
    with Invalid_argument _ -> None
  in
  let old_sigint = install Sys.sigint in
  let old_sigterm = install Sys.sigterm in
  let restore_signals () =
    let put s = function
      | Some b -> (try ignore (Sys.signal s b) with Invalid_argument _ -> ())
      | None -> ()
    in
    put Sys.sigint old_sigint;
    put Sys.sigterm old_sigterm;
    put Sys.sigpipe old_sigpipe
  in
  let jobs_by_key : (string, job) Hashtbl.t = Hashtbl.create 16 in
  let jobs_by_id : (int, job) Hashtbl.t = Hashtbl.create 16 in
  let next_job = ref 0 in
  let send (c : client) (doc : J.t) =
    if c.alive then begin
      let line = J.to_string ~indent:false doc ^ "\n" in
      let n = String.length line in
      let rec put off =
        if off < n then
          match Unix.write_substring c.fd line off (n - off) with
          | written -> put (off + written)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off
          | exception Unix.Unix_error _ -> c.alive <- false
      in
      put 0
    end
  in
  let status_json () =
    J.Obj
      [ ("proto", J.Str Proto.schema);
        ("uptime_seconds", J.Float (Unix.gettimeofday () -. t0));
        ("workers", J.Int (Persistent.procs pool));
        ("clients", J.Int (Hashtbl.length clients));
        ("jobs_running", J.Int (Persistent.running pool));
        ("jobs_queued", J.Int (Persistent.queued pool));
        ("requests", J.Int ctr.requests);
        ("cache_hits", J.Int ctr.cache_hits);
        ("coalesced", J.Int ctr.coalesced);
        ("simulations", J.Int ctr.simulations);
        ("sim_failures", J.Int ctr.sim_failures);
        ("compiles", J.Int ctr.compiles);
        ("compile_hits", J.Int ctr.compile_hits);
        ("stale_tmp_swept", J.Int ctr.stale_swept);
        ("cache_dir", J.Str cache_dir) ]
  in
  (* ---- job scheduling ---- *)
  let enqueue waiter key payload_json =
    match Hashtbl.find_opt jobs_by_key key with
    | Some job ->
      ctr.coalesced <- ctr.coalesced + 1;
      job.j_waiters <- waiter :: job.j_waiters;
      (match waiter with
       | Direct (c, id, _) ->
         send c
           (Proto.reply_event ~id ~event:"coalesced"
              [ ("key", J.Str key) ])
       | Sweep_point _ -> ())
    | None ->
      incr next_job;
      let job = { j_id = !next_job; j_key = key; j_waiters = [ waiter ] } in
      Hashtbl.add jobs_by_key key job;
      Hashtbl.add jobs_by_id job.j_id job;
      Persistent.submit pool ~id:job.j_id
        (J.to_string ~indent:false payload_json);
      (match waiter with
       | Direct (c, id, _) ->
         send c
           (Proto.reply_event ~id ~event:"queued" [ ("key", J.Str key) ])
       | Sweep_point _ -> ())
  in
  let finalize_sweep (agg : sweep_agg) =
    let records =
      Array.to_list agg.sa_records
      |> List.filter_map Fun.id
      |> List.sort Runner.compare_order
    in
    let summary =
      { Sweep.Driver.total = agg.sa_total;
        executed = agg.sa_executed;
        cached = agg.sa_cached;
        failed = agg.sa_failed;
        wall_seconds = Unix.gettimeofday () -. agg.sa_t0 }
    in
    send agg.sa_client
      (Proto.reply_result ~id:agg.sa_id ~op:"sweep"
         ~cached:(agg.sa_executed = 0 && agg.sa_failed = 0)
         (Sweep.Driver.to_json (Grid.spec_to_json agg.sa_spec) summary records))
  in
  let sweep_point_done (agg : sweep_agg) i (res : Runner.record option) =
    (match res with
     | Some r ->
       agg.sa_records.(i) <- Some r;
       agg.sa_executed <- agg.sa_executed + 1
     | None -> agg.sa_failed <- agg.sa_failed + 1);
    agg.sa_done <- agg.sa_done + 1;
    send agg.sa_client
      (Proto.reply_event ~id:agg.sa_id ~event:"progress"
         [ ("done", J.Int agg.sa_done);
           ("total", J.Int agg.sa_total);
           ("failed", J.Int agg.sa_failed) ]);
    if agg.sa_done = agg.sa_total then finalize_sweep agg
  in
  let deliver waiter (r : Runner.record) =
    match waiter with
    | Direct (c, id, op) ->
      send c (Proto.reply_result ~id ~op ~cached:false (Runner.to_json r))
    | Sweep_point (agg, i) -> sweep_point_done agg i (Some r)
  in
  let deliver_error waiter (d : Diag.t) =
    match waiter with
    | Direct (c, id, _) -> send c (Proto.reply_error ~id d)
    | Sweep_point (agg, i) -> sweep_point_done agg i None
  in
  let handle_pool_result (jid, outcome) =
    match Hashtbl.find_opt jobs_by_id jid with
    | None -> log (Printf.sprintf "orphan pool result for job %d" jid)
    | Some job ->
      Hashtbl.remove jobs_by_id jid;
      Hashtbl.remove jobs_by_key job.j_key;
      let waiters = List.rev job.j_waiters in
      (match outcome with
       | Ok line ->
         (match Runner.of_json (J.of_string line) with
          | r ->
            ctr.simulations <- ctr.simulations + 1;
            (try Store.save ~dir:cache_dir job.j_key r
             with e ->
               log
                 (Printf.sprintf "store save failed for %s: %s" job.j_key
                    (Printexc.to_string e)));
            List.iter (fun w -> deliver w r) waiters
          | exception J.Parse_error _ ->
            ctr.sim_failures <- ctr.sim_failures + 1;
            let d =
              Diag.make Diag.Service_error "worker returned a malformed record"
            in
            List.iter (fun w -> deliver_error w d) waiters)
       | Error d ->
         ctr.sim_failures <- ctr.sim_failures + 1;
         List.iter (fun w -> deliver_error w d) waiters)
  in
  (* ---- request handlers ---- *)
  (* A handler raises a request's own [Diag] (an unknown name, an axis
     out of range, a failed compile) before it sends or queues anything;
     [handle_line] replies with it. *)
  let handle_point (c : client) id (preq : Proto.point_req) =
    let op = if preq.Proto.sample = None then "simulate" else "sample" in
    let key = Store.key (Proto.grid_point preq) in
    match Store.lookup ~dir:cache_dir key with
    | Some r ->
      ctr.cache_hits <- ctr.cache_hits + 1;
      send c (Proto.reply_result ~id ~op ~cached:true (Runner.to_json r))
    | None -> enqueue (Direct (c, id, op)) key (Proto.point_req_to_json preq)
  in
  let handle_sweep (c : client) id (sreq : Proto.sweep_req) =
    let spec =
      match Grid.preset ~quick:sreq.Proto.sw_quick sreq.Proto.sw_grid with
      | Some spec -> spec
      | None ->
        Diag.error Diag.Config_error "unknown grid %s (default|smoke|golden)"
          sreq.Proto.sw_grid
    in
    let spec =
      { spec with
        Grid.machines =
          Option.value ~default:spec.Grid.machines sreq.Proto.sw_machines;
        widths = Option.value ~default:spec.Grid.widths sreq.Proto.sw_widths;
        workloads =
          Option.value ~default:spec.Grid.workloads sreq.Proto.sw_workloads }
    in
    let points = Grid.expand spec in
    let n = List.length points in
    let agg =
      { sa_client = c; sa_id = id; sa_spec = spec;
        sa_total = n; sa_records = Array.make (max 1 n) None;
        sa_t0 = Unix.gettimeofday (); sa_done = 0; sa_cached = 0;
        sa_executed = 0; sa_failed = 0 }
    in
    send c (Proto.reply_event ~id ~event:"queued" [ ("total", J.Int n) ]);
    List.iteri
      (fun i pt ->
         let key = Store.key pt in
         match Store.lookup ~dir:cache_dir key with
         | Some r ->
           ctr.cache_hits <- ctr.cache_hits + 1;
           agg.sa_records.(i) <- Some r;
           agg.sa_cached <- agg.sa_cached + 1;
           agg.sa_done <- agg.sa_done + 1
         | None ->
           let preq = Proto.point_req_of_grid_point spec.Grid.quick pt in
           enqueue (Sweep_point (agg, i)) key (Proto.point_req_to_json preq))
      points;
    if agg.sa_done = agg.sa_total then finalize_sweep agg
  in
  let handle_compile (c : client) id target workload quick =
    let w = Workloads.resolve ~quick workload in
    let key = compile_key ~target ~w in
    match Store.lookup_doc ~dir:cache_dir ~sub:"compile" key with
    | Some doc ->
      ctr.compile_hits <- ctr.compile_hits + 1;
      send c (Proto.reply_result ~id ~op:"compile" ~cached:true doc)
    | None ->
      let doc = compile_doc ~target ~w in
      ctr.compiles <- ctr.compiles + 1;
      (try Store.save_doc ~dir:cache_dir ~sub:"compile" key doc
       with e ->
         log
           (Printf.sprintf "compile cache save failed: %s"
              (Printexc.to_string e)));
      send c (Proto.reply_result ~id ~op:"compile" ~cached:false doc)
  in
  let shutdown_requested = ref false in
  let handle_line (c : client) line =
    if String.trim line <> "" then begin
      ctr.requests <- ctr.requests + 1;
      match J.of_string line with
      | exception J.Parse_error m ->
        send c
          (Proto.reply_error ~id:"-"
             (Diag.make Diag.Proto_error ("malformed request: " ^ m)))
      | j ->
        (* a malformed id is itself a protocol error, addressed to "-" *)
        let id = try Proto.request_id j with Diag.Error _ -> "-" in
        (match Proto.request_of_json j with
         | exception Diag.Error d -> send c (Proto.reply_error ~id d)
         | exception e ->
           send c
             (Proto.reply_error ~id
                (Diag.make Diag.Service_error (Printexc.to_string e)))
         | req ->
           (try
              match req with
              | Proto.Compile { target; workload; quick } ->
                handle_compile c id target workload quick
              | Proto.Point preq -> handle_point c id preq
              | Proto.Sweep sreq -> handle_sweep c id sreq
              | Proto.Status ->
                send c
                  (Proto.reply_result ~id ~op:"status" ~cached:false
                     (status_json ()))
              | Proto.Shutdown ->
                send c
                  (Proto.reply_result ~id ~op:"shutdown" ~cached:false
                     (J.Obj [ ("ok", J.Bool true) ]));
                shutdown_requested := true
            with Diag.Error d -> send c (Proto.reply_error ~id d)))
    end
  in
  (* ---- client lifecycle ---- *)
  let drop_client (c : client) =
    c.alive <- false;
    Hashtbl.remove clients c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    (* its pending direct requests die with it; pool jobs keep running
       (the result still lands in the store for the next asker) *)
    Hashtbl.iter
      (fun _ job ->
         job.j_waiters <-
           List.filter
             (function
               | Direct (c', _, _) -> c' != c
               | Sweep_point (agg, _) -> agg.sa_client != c)
             job.j_waiters)
      jobs_by_key
  in
  let read_client (c : client) =
    let buf = Bytes.create 65536 in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> drop_client c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> drop_client c
    | n ->
      Buffer.add_subbytes c.inbuf buf 0 n;
      if Buffer.length c.inbuf > max_line then begin
        send c
          (Proto.reply_error ~id:"-"
             (Diag.make Diag.Proto_error "request line too long"));
        drop_client c
      end
      else begin
        let s = Buffer.contents c.inbuf in
        let rec split start acc =
          match String.index_from_opt s start '\n' with
          | Some i -> split (i + 1) (String.sub s start (i - start) :: acc)
          | None -> (List.rev acc, String.sub s start (String.length s - start))
        in
        let lines, rest = split 0 [] in
        Buffer.clear c.inbuf;
        Buffer.add_string c.inbuf rest;
        List.iter
          (fun line ->
             (* one bad request must never take the daemon down *)
             try handle_line c line
             with e ->
               send c
                 (Proto.reply_error ~id:"-"
                    (Diag.make Diag.Service_error (Printexc.to_string e))))
          lines
      end
  in
  log
    (Printf.sprintf "listening on %s (%d worker(s), cache %s)" socket_path
       (Persistent.procs pool) cache_dir);
  (* ---- event loop ---- *)
  Fun.protect
    ~finally:(fun () ->
        (* abort whatever is still pending, then tear everything down *)
        let pending = Hashtbl.fold (fun _ j acc -> j :: acc) jobs_by_id [] in
        Hashtbl.reset jobs_by_id;
        Hashtbl.reset jobs_by_key;
        let d = Diag.make Diag.Service_error "daemon shutting down" in
        List.iter
          (fun job ->
             List.iter (fun w -> deliver_error w d) (List.rev job.j_waiters))
          pending;
        Persistent.shutdown pool;
        Hashtbl.iter
          (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
          clients;
        Hashtbl.reset clients;
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
        restore_signals ();
        log "shut down")
  @@ fun () ->
  while not (!stop || !shutdown_requested) do
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let fds = (lfd :: client_fds) @ Persistent.result_fds pool in
    let readable =
      match Unix.select fds [] [] 0.2 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.mem lfd readable then begin
      match Unix.accept lfd with
      | fd, _ ->
        Hashtbl.replace clients fd
          { fd; inbuf = Buffer.create 256; alive = true }
      | exception Unix.Unix_error _ -> ()
    end;
    List.iter
      (fun fd ->
         match Hashtbl.find_opt clients fd with
         | Some c when List.mem fd readable -> read_client c
         | _ -> ())
      client_fds;
    List.iter handle_pool_result (Persistent.poll ~timeout_job pool);
    (* writes can discover a dead peer at any point; collect them *)
    let dead =
      Hashtbl.fold (fun _ c acc -> if c.alive then acc else c :: acc) clients []
    in
    List.iter drop_client dead
  done
