(* straightd protocol tests.

   Each test forks a real daemon (Service.Server.run in the child, on a
   fresh socket + cache under a temp directory) and drives it over the
   wire with Service.Client:

   - pure codec properties (unknown ops, field-shape violations, the
     point-request round trip preserving the store content address);
   - malformed request lines get a structured PROTO_ERROR reply and the
     server keeps serving;
   - a client disconnecting mid-job kills neither the job nor the
     server, and the job's record still lands in the store;
   - N identical concurrent requests coalesce onto one job: every
     client gets the record, the daemon's own counters show exactly one
     simulation;
   - a sweep request returns the CLI driver's straight-sweep/1 document
     for the same grid (daemon == CLI);
   - the compile op answers every target name with the library's
     listing, memoizes it, and rejects an unknown target;
   - a shutdown request drains cleanly: exit 0, socket unlinked. *)

module J = Json
module Proto = Service.Proto
module Client = Service.Client

let tmpdir prefix = Filename.temp_dir prefix ""

let sleep s = ignore (Unix.select [] [] [] s)

(* fork a daemon; hand the socket path to [f]; always tear down *)
let with_daemon ?(procs = 2) f =
  let dir = tmpdir "straightd-test" in
  let sock = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  match Unix.fork () with
  | 0 ->
    (match
       Service.Server.run ~socket_path:sock ~procs ~cache_dir:cache ()
     with
     | () -> Unix._exit 0
     | exception _ -> Unix._exit 1)
  | pid ->
    let rec wait_up n =
      if Sys.file_exists sock then ()
      else if n = 0 then Alcotest.fail "daemon never came up"
      else begin
        sleep 0.05;
        wait_up (n - 1)
      end
    in
    wait_up 100;
    Fun.protect
      ~finally:(fun () ->
          (* idempotent teardown whatever the test already did *)
          (try
             let c = Client.connect sock in
             ignore (Client.request c (J.Obj [ ("op", J.Str "shutdown") ]));
             Client.close c
           with _ -> ());
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
           | 0, _ ->
             (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
             (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
           | _ -> ()
           | exception Unix.Unix_error _ -> () (* the test reaped it *)))
      (fun () -> f ~sock ~cache ~pid)

let get_status c =
  let reply = Client.request c (J.Obj [ ("op", J.Str "status") ]) in
  match J.member "result" reply with
  | Some r -> r
  | None -> Alcotest.fail "status reply without a result"

let status_int name st =
  match J.get_int (J.member name st) with
  | Some n -> n
  | None -> Alcotest.failf "status without %S" name

let simulate_req ?(id = "-") workload =
  J.Obj
    [ ("id", J.Str id);
      ("op", J.Str "simulate");
      ("machine", J.Str "ss");
      ("workload", J.Str workload);
      ("quick", J.Bool true) ]

(* ---------- pure codec ---------- *)

let test_proto_codec () =
  (match Proto.request_of_json (J.Obj [ ("op", J.Str "frobnicate") ]) with
   | _ -> Alcotest.fail "unknown op must be rejected"
   | exception Proto.Bad_request (Diag.Proto_error, _) -> ());
  (match Proto.request_of_json (J.Str "simulate") with
   | _ -> Alcotest.fail "non-object requests must be rejected"
   | exception Proto.Bad_request (Diag.Proto_error, _) -> ());
  (match
     Proto.request_of_json
       (J.Obj [ ("op", J.Str "simulate"); ("workload", J.Str "fib");
                ("width", J.Str "two") ])
   with
   | _ -> Alcotest.fail "a string width must be rejected"
   | exception Proto.Bad_request (Diag.Proto_error, _) -> ());
  (match
     Proto.request_of_json
       (J.Obj [ ("op", J.Str "simulate"); ("workload", J.Str "fib");
                ("machine", J.Str "valiant") ])
   with
   | _ -> Alcotest.fail "an unknown machine must be rejected"
   | exception Proto.Bad_request (Diag.Config_error, _) -> ());
  (* a present field of the wrong type is a protocol violation, never
     its default *)
  List.iter
    (fun (req, field) ->
       match Proto.request_of_json (J.of_string req) with
       | _ -> Alcotest.failf "%s: a mistyped %S must be rejected" req field
       | exception Proto.Bad_request (Diag.Proto_error, m) ->
         Alcotest.(check string) (req ^ ": message")
           (Printf.sprintf "field %S must be a string" field) m)
    [ ({|{"op":"simulate","workload":"fib","machine":5}|}, "machine");
      ({|{"op":"simulate","workload":"fib","predictor":true}|}, "predictor");
      ({|{"op":"compile","workload":"fib","target":["riscv"]}|}, "target");
      ({|{"op":"sweep","grid":7}|}, "grid") ];
  (* ... while a missing or null one still takes its default *)
  (match
     Proto.request_of_json
       (J.of_string {|{"op":"simulate","workload":"fib","machine":null}|})
   with
   | Proto.Point preq ->
     Alcotest.(check string) "null machine defaults to ss" "ss"
       (Sweep.Grid.machine_label preq.Proto.machine)
   | _ -> Alcotest.fail "expected a point request");
  (* "sample" without a spec is a protocol violation *)
  (match
     Proto.request_of_json
       (J.Obj [ ("op", J.Str "sample"); ("workload", J.Str "fib") ])
   with
   | _ -> Alcotest.fail "sample without a spec must be rejected"
   | exception Proto.Bad_request (Diag.Proto_error, _) -> ());
  (* the canonical-JSON round trip preserves the store content address:
     the scheduler and the pool worker must derive the same key *)
  List.iter
    (fun req ->
       match Proto.request_of_json req with
       | Proto.Point preq ->
         let pt = Proto.grid_point preq in
         let preq' = Proto.point_req_of_json (Proto.point_req_to_json preq) in
         let pt' = Proto.grid_point preq' in
         Alcotest.(check string)
           (J.to_string ~indent:false req ^ ": key stable across the wire")
           (Sweep.Store.key pt) (Sweep.Store.key pt')
       | _ -> Alcotest.fail "expected a point request")
    [ simulate_req "fib";
      J.Obj
        [ ("op", J.Str "sample"); ("workload", J.Str "dhrystone");
          ("machine", J.Str "straight-re"); ("width", J.Int 4);
          ("predictor", J.Str "tage"); ("ideal", J.Bool true);
          ("sample", J.Str "interval=2k,warmup=500,every=2") ] ]

let test_sweep_point_roundtrip () =
  (* every preset-grid point must survive the requote-as-request trip
     with its content address intact (this is what lets a daemon sweep
     share cache entries with bin/sweep) *)
  List.iter
    (fun (spec : Sweep.Grid.spec) ->
       List.iter
         (fun pt ->
            let preq = Proto.point_req_of_grid_point spec.Sweep.Grid.quick pt in
            let pt' =
              Proto.grid_point
                (Proto.point_req_of_json (Proto.point_req_to_json preq))
            in
            Alcotest.(check string) "store key preserved"
              (Sweep.Store.key pt) (Sweep.Store.key pt'))
         (Sweep.Grid.expand spec))
    [ Sweep.Grid.smoke; Sweep.Grid.default ~quick:true ]

(* ---------- live daemon ---------- *)

let test_malformed_requests () =
  with_daemon (fun ~sock ~cache:_ ~pid:_ ->
      let c = Client.connect sock in
      (* unparseable line -> structured PROTO_ERROR, not a dead server *)
      Client.send_raw c "{this is not json";
      (match Client.recv c with
       | Some reply ->
         Alcotest.(check (option string)) "error reply" (Some "error")
           (J.get_string (J.member "type" reply));
         Alcotest.(check (option string)) "PROTO_ERROR code"
           (Some "PROTO_ERROR")
           (J.get_string (J.member "code" reply))
       | None -> Alcotest.fail "server closed on a malformed line");
      (* unknown op on the same connection *)
      let reply =
        Client.request c
          (J.Obj [ ("id", J.Str "x"); ("op", J.Str "frobnicate") ])
      in
      Alcotest.(check (option string)) "unknown op is PROTO_ERROR"
        (Some "PROTO_ERROR")
        (J.get_string (J.member "code" reply));
      (* unknown workload is a config error, not a crash *)
      let reply = Client.request c (simulate_req "no-such-workload") in
      Alcotest.(check (option string)) "unknown workload is CONFIG_ERROR"
        (Some "CONFIG_ERROR")
        (J.get_string (J.member "code" reply));
      (* the server survived all of it *)
      let st = get_status c in
      Alcotest.(check bool) "server still answers" true
        (status_int "requests" st >= 3);
      (* a 1 MiB line of open brackets is rejected by the parser's
         nesting bound, and the loop goes on to serve another client *)
      Client.send_raw c (String.make ((1 lsl 20) - 1) '[');
      (match Client.recv c with
       | Some reply ->
         Alcotest.(check (option string)) "deep nesting is PROTO_ERROR"
           (Some "PROTO_ERROR")
           (J.get_string (J.member "code" reply))
       | None -> Alcotest.fail "server closed on a deeply nested line");
      let d = Client.connect sock in
      Alcotest.(check bool) "status on another connection" true
        (status_int "requests" (get_status d) >= 6);
      Client.close d;
      Client.close c)

let test_disconnect_mid_job () =
  with_daemon (fun ~sock ~cache:_ ~pid:_ ->
      (* client A queues a simulation and vanishes *)
      let a = Client.connect sock in
      Client.send a (simulate_req ~id:"a" "fib");
      (match Client.recv a with
       | Some ev ->
         Alcotest.(check (option string)) "job was queued" (Some "queued")
           (J.get_string (J.member "event" ev))
       | None -> Alcotest.fail "no queued event");
      Client.close a;
      (* the job must finish anyway and land in the store: client B
         asks for the same point and gets a result (fresh or cached,
         but simulated exactly once) *)
      let b = Client.connect sock in
      let reply = Client.request b (simulate_req ~id:"b" "fib") in
      Alcotest.(check (option string)) "B gets a result" (Some "result")
        (J.get_string (J.member "type" reply));
      let rec settled tries =
        let st = get_status b in
        let sims = status_int "simulations" st in
        let running = status_int "jobs_running" st in
        if running = 0 && sims >= 1 then sims
        else if tries = 0 then sims
        else begin
          sleep 0.1;
          settled (tries - 1)
        end
      in
      Alcotest.(check int) "the abandoned job ran exactly once" 1
        (settled 100);
      Client.close b)

let test_concurrent_coalescing () =
  with_daemon ~procs:4 (fun ~sock ~cache:_ ~pid:_ ->
      (* N identical requests, all on the wire before any completes *)
      let n = 6 in
      let cs = List.init n (fun _ -> Client.connect sock) in
      List.iteri
        (fun i c -> Client.send c (simulate_req ~id:(string_of_int i) "iota"))
        cs;
      let replies =
        List.mapi (fun i c -> Client.wait c ~id:(string_of_int i)) cs
      in
      List.iteri
        (fun i reply ->
           Alcotest.(check (option string))
             (Printf.sprintf "client %d got a result" i)
             (Some "result")
             (J.get_string (J.member "type" reply));
           (* every waiter receives the same record *)
           Alcotest.(check (option string)) "same workload" (Some "iota")
             (J.get_string (J.member "workload"
                              (Option.value ~default:J.Null
                                 (J.member "result" reply)))))
        replies;
      let c = List.hd cs in
      let st = get_status c in
      Alcotest.(check int) "exactly one simulation ran" 1
        (status_int "simulations" st);
      Alcotest.(check bool) "the rest coalesced or hit the cache" true
        (status_int "coalesced" st + status_int "cache_hits" st >= n - 1);
      List.iter Client.close cs)

let test_sweep_matches_cli () =
  (* daemon == CLI: the daemon's sweep reply is the CLI driver's
     straight-sweep/1 document for the same grid, byte for byte, up to
     host time and cache state *)
  let blank keys = function
    | J.Obj kv ->
      J.Obj (List.map (fun (k, v) -> (k, if List.mem k keys then J.Null else v)) kv)
    | j -> j
  in
  let normalize = function
    | J.Obj kv ->
      J.to_string
        (J.Obj
           (List.map
              (fun (k, v) ->
                 match k, v with
                 | "summary", s -> (k, blank [ "wall_seconds" ] s)
                 | "records", J.List rs ->
                   (k, J.List (List.map (blank [ "host_seconds"; "cached" ]) rs))
                 | _ -> (k, v))
              kv))
    | j -> Alcotest.failf "sweep document is not an object: %s" (J.to_string j)
  in
  let field name j =
    match J.member name j with
    | Some v -> v
    | None -> Alcotest.failf "sweep reply without %S" name
  in
  with_daemon (fun ~sock ~cache:_ ~pid:_ ->
      let c = Client.connect sock in
      let reply =
        Client.request c
          (J.Obj [ ("op", J.Str "sweep"); ("grid", J.Str "smoke") ])
      in
      Client.close c;
      let records, summary =
        Sweep.Driver.sweep ~procs:0 ~cache_dir:(tmpdir "straightd-cli")
          Sweep.Grid.smoke
      in
      Alcotest.(check string) "daemon document equals the CLI's"
        (normalize (Sweep.Driver.to_json Sweep.Grid.smoke summary records))
        (normalize (field "result" reply));
      Alcotest.(check int) "CLI total" 2 summary.Sweep.Driver.total;
      Alcotest.(check int) "CLI failed" 0 summary.Sweep.Driver.failed)

let test_compile_op () =
  (* every target name the tools accept maps onto its experiment target;
     the daemon answers each with the right label and the library's own
     listing, and serves a repeat from the memo cache *)
  let module Exp = Straight_core.Experiment in
  let src = (Sweep.Grid.workload ~quick:true "fib").Workloads.source in
  let expected =
    [ ("ss", Exp.Riscv, "SS");
      ("riscv", Exp.Riscv, "SS");
      ("straight", Exp.Straight_re, "STRAIGHT(RE+)");
      ("straight-re", Exp.Straight_re, "STRAIGHT(RE+)");
      ("straight-raw", Exp.Straight_raw, "STRAIGHT(RAW)") ]
  in
  List.iter
    (fun (name, target, _) ->
       Alcotest.(check bool) (name ^ ": of_name") true
         (Exp.of_name name = Some target))
    expected;
  Alcotest.(check bool) "unknown name" true (Exp.of_name "bogus" = None);
  let req target =
    J.Obj
      [ ("op", J.Str "compile"); ("target", J.Str target);
        ("workload", J.Str "fib") ]
  in
  with_daemon (fun ~sock ~cache:_ ~pid:_ ->
      let c = Client.connect sock in
      List.iter
        (fun (name, target, label) ->
           let asm =
             Lazy.force
               (Straight_core.Compile.compile (Exp.codegen target) src)
                 .Straight_core.Compile.listing
           in
           let reply = Client.request c (req name) in
           let result = Option.value ~default:J.Null (J.member "result" reply) in
           Alcotest.(check (option string)) (name ^ ": label") (Some label)
             (J.get_string (J.member "target" result));
           Alcotest.(check (option string)) (name ^ ": listing") (Some asm)
             (J.get_string (J.member "asm" result)))
        expected;
      let reply = Client.request c (req "straight-raw") in
      Alcotest.(check bool) "a repeat is cached" true
        (J.member "cached" reply = Some (J.Bool true));
      let reply = Client.request c (req "bogus") in
      Alcotest.(check (option string)) "unknown target is CONFIG_ERROR"
        (Some "CONFIG_ERROR")
        (J.get_string (J.member "code" reply));
      Client.close c)

let test_clean_shutdown () =
  with_daemon (fun ~sock ~cache:_ ~pid ->
      let c = Client.connect sock in
      let reply = Client.request c (J.Obj [ ("op", J.Str "shutdown") ]) in
      Alcotest.(check (option string)) "shutdown acknowledged"
        (Some "result")
        (J.get_string (J.member "type" reply));
      Client.close c;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _, _ -> Alcotest.fail "daemon did not exit cleanly");
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock))

let suite =
  [ Alcotest.test_case "proto: codec rejects bad requests" `Quick
      test_proto_codec;
    Alcotest.test_case "proto: grid point key round-trip" `Quick
      test_sweep_point_roundtrip;
    Alcotest.test_case "daemon: malformed requests get errors" `Quick
      test_malformed_requests;
    Alcotest.test_case "daemon: disconnect mid-job" `Slow
      test_disconnect_mid_job;
    Alcotest.test_case "daemon: identical requests coalesce" `Slow
      test_concurrent_coalescing;
    Alcotest.test_case "daemon: sweep equals the CLI sweep" `Slow
      test_sweep_matches_cli;
    Alcotest.test_case "daemon: compile op" `Quick test_compile_op;
    Alcotest.test_case "daemon: clean shutdown" `Quick test_clean_shutdown ]

let () = Alcotest.run "service" [ ("service", suite) ]
