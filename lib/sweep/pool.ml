(* Fork-based worker pool (see pool.mli).

   One worker session, [Persistent]; the batch [run] is a retry,
   backoff and signal policy over it.  Parent/worker protocol, one line
   each way per job:

     parent -> worker:  "<id> <payload>\n"
     worker -> parent:  "ok <id> <payload>\n"  |  "err <id> <diag>\n"

   The result payload is produced in the child, so it must be
   newline-free (the sweep ships compact JSON).  <diag> is the job's
   [Diag.t] as one compact JSON object of [diag_fields]; an exception
   that is not a [Diag.Error] travels as a [Service_error] carrying its
   [Printexc] text.  Workers are stateless between jobs — job data
   lives in the payload or in the worker closure, which the child
   inherits through fork — so a killed worker is replaced by simply
   forking again. *)

exception Interrupted of int

(* OCaml's Sys.sig* numbers are runtime-internal negatives; map the two
   [run] traps back to their POSIX values. *)
let posix_signal s = if s = Sys.sigint then 2 else 15

type event =
  | Retry of { job : int; attempt : int; backoff : float; reason : string }

let oneline s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let diag_fields (d : Diag.t) =
  [ ("code", Json.Str (Diag.code_name d.Diag.code));
    ("message", Json.Str d.Diag.message) ]
  @
  match d.Diag.context with
  | [] -> []
  | ctx ->
    [ ("context", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ctx)) ]

let diag_to_line d = Json.to_string ~indent:false (Json.Obj (diag_fields d))

(* [None] for anything [diag_to_line] cannot have written *)
let diag_of_line s : Diag.t option =
  let str = function Json.Str v -> v | _ -> Json.fail "context value" in
  try
    let j = Json.of_string s in
    let context =
      match Json.member "context" j with
      | None -> []
      | Some (Json.Obj ctx) -> List.map (fun (k, v) -> (k, str v)) ctx
      | Some _ -> Json.fail "context"
    in
    Option.map
      (fun code -> Diag.make code (Json.string "message" j) ~context)
      (Diag.of_code_name (Json.string "code" j))
  with Json.Parse_error _ -> None

let pool_error message = Diag.make Diag.Service_error message

(* a signal can land during select(); treat the EINTR as an empty wait
   and let the loop head observe the interrupt flag *)
let select_read fds t =
  match Unix.select fds [] [] t with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* No signal handling and no retries in the session: the resident
   daemon owns its signals and decides retry policy per request, and
   the batch [run] below adds its own. *)
module Persistent = struct
  type job = { id : int; payload : string }

  type pworker = {
    p_pid : int;
    p_job_fd : Unix.file_descr;
    p_job_w : out_channel;
    p_res_fd : Unix.file_descr;
    p_res_ic : in_channel;
    mutable p_current : job option;
    mutable p_started : float;
  }

  type t = {
    n_procs : int;
    work : string -> string;
    at_fork : unit -> unit;
    mutable pool : pworker list;
    queue : job Queue.t;
    mutable alive : bool;
  }

  let p_sibling_fds pool =
    List.concat_map (fun w -> [ w.p_job_fd; w.p_res_fd ]) pool

  (* [siblings] are the parent's pipe ends for the other live workers:
     fork duplicates them into the child, and a child holding a copy of
     a sibling's job-pipe write end would keep that sibling alive past
     the parent's close (no EOF ever arrives), so the child drops them
     all before entering its job loop. *)
  let p_spawn t ~siblings : pworker =
    let jr, jw = Unix.pipe ~cloexec:false () in
    let rr, rw = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix.close jw;
      Unix.close rr;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        siblings;
      (* the daemon's graceful-shutdown choreography runs in the parent
         only; workers die on the default disposition *)
      (try Sys.set_signal Sys.sigint Sys.Signal_default
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigterm Sys.Signal_default
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigpipe Sys.Signal_default
       with Invalid_argument _ -> ());
      (* the caller's chance to drop inherited fds (listen socket,
         client connections) so a worker never pins them open *)
      (try t.at_fork () with _ -> ());
      let ic = Unix.in_channel_of_descr jr in
      let oc = Unix.out_channel_of_descr rw in
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
          let reply =
            match String.index_opt line ' ' with
            | None ->
              "err 0 " ^ diag_to_line (pool_error "bad job line")
            | Some sp ->
              let id = String.sub line 0 sp in
              let payload =
                String.sub line (sp + 1) (String.length line - sp - 1)
              in
              (match t.work payload with
               | result -> Printf.sprintf "ok %s %s" id (oneline result)
               | exception Diag.Error d ->
                 Printf.sprintf "err %s %s" id (diag_to_line d)
               | exception e ->
                 Printf.sprintf "err %s %s" id
                   (diag_to_line (pool_error (Printexc.to_string e))))
          in
          output_string oc (reply ^ "\n");
          flush oc;
          loop ()
      in
      (try loop () with _ -> ());
      (* _exit: skip at_exit/buffer flushing inherited from the parent *)
      Unix._exit 0
    | pid ->
      Unix.close jr;
      Unix.close rw;
      { p_pid = pid;
        p_job_fd = jw;
        p_job_w = Unix.out_channel_of_descr jw;
        p_res_fd = rr;
        p_res_ic = Unix.in_channel_of_descr rr;
        p_current = None;
        p_started = 0. }

  let p_dismiss (w : pworker) ~kill =
    if kill then
      (try Unix.kill w.p_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try close_out w.p_job_w with Sys_error _ -> ());
    (try ignore (Unix.waitpid [] w.p_pid) with Unix.Unix_error _ -> ());
    try close_in w.p_res_ic with Sys_error _ -> ()

  let create ~procs ?(at_fork = fun () -> ()) ~(worker : string -> string) ()
    : t =
    let t =
      { n_procs = max 1 procs;
        work = worker;
        at_fork;
        pool = [];
        queue = Queue.create ();
        alive = true }
    in
    (try
       for _ = 1 to t.n_procs do
         t.pool <- p_spawn t ~siblings:(p_sibling_fds t.pool) :: t.pool
       done
     with e ->
       (* a failed fork must not strand the workers already forked *)
       List.iter (fun w -> p_dismiss w ~kill:true) t.pool;
       raise e);
    t

  let procs t = t.n_procs
  let running t = List.length (List.filter (fun w -> w.p_current <> None) t.pool)
  let queued t = Queue.length t.queue

  let result_fds t =
    List.filter_map
      (fun w -> if w.p_current <> None then Some w.p_res_fd else None)
      t.pool

  let p_replace t w : pworker =
    p_dismiss w ~kill:true;
    let rest = List.filter (fun x -> x.p_pid <> w.p_pid) t.pool in
    let w' = p_spawn t ~siblings:(p_sibling_fds rest) in
    t.pool <- w' :: rest;
    w'

  (* hand [j] to [w]; a dead worker is replaced and the job re-queued *)
  let p_send t w (j : job) =
    w.p_current <- Some j;
    w.p_started <- Unix.gettimeofday ();
    try
      output_string w.p_job_w
        (Printf.sprintf "%d %s\n" j.id (oneline j.payload));
      flush w.p_job_w
    with Sys_error _ ->
      w.p_current <- None;
      Queue.add j t.queue;
      ignore (p_replace t w)

  let dispatch t =
    List.iter
      (fun w ->
         if w.p_current = None && not (Queue.is_empty t.queue) then
           p_send t w (Queue.take t.queue))
      t.pool

  let submit t ~id payload =
    if not t.alive then invalid_arg "Pool.Persistent.submit: pool is shut down";
    Queue.add { id; payload } t.queue;
    dispatch t

  (* one result line: [None] is a protocol violation *)
  let parse_reply line =
    match String.split_on_char ' ' line with
    | "ok" :: id :: rest ->
      Option.map (fun id -> (id, Ok (String.concat " " rest)))
        (int_of_string_opt id)
    | "err" :: id :: rest ->
      (match int_of_string_opt id, diag_of_line (String.concat " " rest) with
       | Some id, Some d -> Some (id, Error d)
       | _ -> None)
    | _ -> None

  let poll ?(timeout_job = 0.) t : (int * (string, Diag.t) result) list =
    let out = ref [] in
    let busy = List.filter (fun w -> w.p_current <> None) t.pool in
    if busy <> [] then begin
      let readable = select_read (List.map (fun w -> w.p_res_fd) busy) 0. in
      List.iter
        (fun w ->
           if List.mem w.p_res_fd readable then
             match input_line w.p_res_ic with
             | exception End_of_file ->
               let j = w.p_current in
               ignore (p_replace t w);
               (match j with
                | Some j ->
                  out := (j.id, Error (pool_error "worker died")) :: !out
                | None -> ())
             | line ->
               (match parse_reply line with
                | Some r ->
                  w.p_current <- None;
                  out := r :: !out
                | None ->
                  let j = w.p_current in
                  ignore (p_replace t w);
                  (match j with
                   | Some j ->
                     out :=
                       ( j.id,
                         Error (pool_error ("pool protocol violation: " ^ line))
                       )
                       :: !out
                   | None -> ())))
        busy;
      if timeout_job > 0. then begin
        let now = Unix.gettimeofday () in
        List.iter
          (fun w ->
             match w.p_current with
             | Some j when now -. w.p_started > timeout_job ->
               ignore (p_replace t w);
               out :=
                 ( j.id,
                   Error
                     (pool_error
                        (Printf.sprintf "timeout after %.0fs" timeout_job)) )
                 :: !out
             | _ -> ())
          t.pool
      end
    end;
    dispatch t;
    List.rev !out

  let shutdown t =
    if t.alive then begin
      t.alive <- false;
      (* idle workers get EOF and exit on their own; busy ones are
         mid-simulation and get the axe.  Every job pipe closes before
         the first reap, so the idle workers exit in parallel. *)
      List.iter (fun w -> close_out_noerr w.p_job_w) t.pool;
      List.iter
        (fun w -> p_dismiss w ~kill:(w.p_current <> None))
        t.pool;
      t.pool <- [];
      Queue.clear t.queue
    end
end

(* ---------- batch runs: a fixed job list over one session ---------- *)

(* Deterministic jitter in [0.75, 1.25], derived from the job identity,
   so two attempts of the same job always wait the same amount (the
   recovery-determinism tests rely on reproducible pool behavior) while
   different jobs still decorrelate. *)
let backoff_delay idx attempt =
  let raw = min 30. (0.25 *. (2. ** float_of_int (attempt - 1))) in
  let h = Hashtbl.hash (idx, attempt) land 0xffff in
  raw *. (0.75 +. (0.5 *. float_of_int h /. 65535.))

(* [run]'s failure text: the pool's own failures and a worker's
   non-[Diag] exception read as their message alone, a job's [Diag] as
   the command-line tools print it. *)
let reason (d : Diag.t) =
  if d.Diag.code = Diag.Service_error then d.Diag.message else Diag.to_string d

let run ~jobs ~(worker : int -> string) ~procs ?(timeout = 600.) ?(retries = 1)
    ?(on_event = fun _ -> ()) ?(on_interrupt = fun () -> ())
    ~(on_result : int -> (string, string) result -> unit) () : unit =
  if jobs > 0 then begin
    let p =
      Persistent.create ~procs:(min procs jobs)
        ~worker:(fun payload -> worker (int_of_string payload))
        ()
    in
    (* a worker killed between select() and the parent's write must not
       SIGPIPE the parent; the session's write path handles the EPIPE *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    (* SIGINT/SIGTERM only raise a flag here; the loop head does the
       actual shutdown at a point where the session is consistent *)
    let interrupted = ref None in
    let install s =
      try Some (Sys.signal s (Sys.Signal_handle (fun _ -> interrupted := Some s)))
      with Invalid_argument _ -> None
    in
    let old_sigint = install Sys.sigint in
    let old_sigterm = install Sys.sigterm in
    (* Every exit path — normal completion, Interrupted, or an exception
       escaping a callback ([on_result]/[on_event] raising) — must shut
       the session down and restore the handlers: a long-lived caller
       otherwise leaks child processes and keeps its SIGINT/SIGTERM/
       SIGPIPE handlers hijacked. *)
    Fun.protect
      ~finally:(fun () ->
          Persistent.shutdown p;
          let put s = function
            | Some b -> (try ignore (Sys.signal s b) with Invalid_argument _ -> ())
            | None -> ()
          in
          put Sys.sigint old_sigint;
          put Sys.sigterm old_sigterm;
          put Sys.sigpipe old_sigpipe)
    @@ fun () ->
    let check_interrupt () =
      match !interrupted with
      | Some s ->
        Persistent.shutdown p;
        on_interrupt ();
        raise (Interrupted s)
      | None -> ()
    in
    (* jobs not yet handed to the session, and retries waiting out
       their backoff: (eligible_at, idx) *)
    let pending = Queue.create () in
    for i = 0 to jobs - 1 do
      Queue.add i pending
    done;
    let delayed = ref [] in
    let attempts = Array.make jobs 0 in
    let done_count = ref 0 in
    let finish (idx, outcome) =
      match Result.map_error reason outcome with
      | Error msg when attempts.(idx) < retries ->
        let attempt = attempts.(idx) + 1 in
        attempts.(idx) <- attempt;
        let backoff = backoff_delay idx attempt in
        on_event (Retry { job = idx; attempt; backoff; reason = msg });
        delayed := (Unix.gettimeofday () +. backoff, idx) :: !delayed
      | outcome ->
        incr done_count;
        on_result idx outcome
    in
    while !done_count < jobs do
      check_interrupt ();
      (* promote retries whose backoff has elapsed *)
      if !delayed <> [] then begin
        let now = Unix.gettimeofday () in
        let due, later = List.partition (fun (at, _) -> at <= now) !delayed in
        delayed := later;
        List.iter (fun (_, idx) -> Queue.add idx pending) (List.sort compare due)
      end;
      (* hand the session at most one job per worker: [poll] dispatches
         queued jobs before [run] delivers the results it returns, so a
         deeper queue would start jobs that a raising [on_result] then
         kills *)
      while
        Persistent.running p + Persistent.queued p < Persistent.procs p
        && not (Queue.is_empty pending)
      do
        let idx = Queue.take pending in
        Persistent.submit p ~id:idx (string_of_int idx)
      done;
      (* with nothing in flight, only retries waiting out their backoff
         remain *)
      (match Persistent.result_fds p with
       | [] -> ignore (select_read [] 0.01)
       | fds -> ignore (select_read fds 0.2));
      List.iter finish (Persistent.poll ~timeout_job:timeout p)
    done;
    check_interrupt ()
  end
