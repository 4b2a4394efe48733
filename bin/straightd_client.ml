(* straightd-client: one-shot requests and a load generator for the
   resident simulation service.

     dune exec bin/straightd_client.exe -- -socket PATH [options]

   One-shot mode builds a single straightd-proto/1 request from flags
   (or ships -json verbatim), streams its event lines to stderr, prints
   the terminal reply on stdout, and exits 0 on "result" or with the
   Diag exit code of the reply's error code.

   Load-generator mode (-bench) forks -clients N concurrent client
   processes, each sending -requests M requests drawn round-robin from
   -mix, and reports requests/sec, p50/p95 latency, and cache hit rate
   as straightd-bench/1 JSON on stdout (or -out FILE) — the artifact CI
   uploads from the daemon-smoke job (see EXPERIMENTS.md).

   Exit codes: 0 ok; 1 bench saw request errors; 2 usage; 10 cannot
   reach the daemon; otherwise the error reply's Diag exit code. *)

module J = Json

let usage () =
  prerr_endline
    "usage: straightd-client -socket PATH [options]\n\
     one-shot:\n\
     \  -op OP          compile|simulate|sample|sweep|status|shutdown\n\
     \                  (default status)\n\
     \  -workload W     workload name (compile/simulate/sample)\n\
     \  -machine M      ss|ss-ckptN|straight-raw|straight-re (default ss)\n\
     \  -width N        issue width (default 2)\n\
     \  -predictor P    gshare|tage (default gshare)\n\
     \  -ideal          idealized recovery\n\
     \  -sample SPEC    sampling spec (op sample), e.g. interval=2k,every=2\n\
     \  -target T       compile target: ss|straight-raw|straight-re\n\
     \  -grid G         sweep preset: default|smoke|golden (default smoke)\n\
     \  -machines LIST  sweep machine override (comma list)\n\
     \  -widths LIST    sweep width override (comma list)\n\
     \  -workloads LIST sweep workload override (comma list)\n\
     \  -no-quick       full iteration counts (default quick)\n\
     \  -json REQ       ship REQ verbatim instead of building from flags\n\
     \  -quiet          do not echo event lines to stderr\n\
     load generator:\n\
     \  -bench          run the load generator and print straightd-bench/1\n\
     \  -clients N      concurrent client processes (default 8)\n\
     \  -requests M     requests per client (default 16)\n\
     \  -mix LIST       comma list of op[:workload[:machine]] items\n\
     \                  (default simulate:fib,simulate:iota,status)\n\
     \  -out FILE       write the bench report to FILE too";
  exit 2

(* ---------- one-shot ---------- *)

let one_shot ~socket ~quiet (req : J.t) =
  let cl = Service.Client.connect socket in
  let on_event j =
    if not quiet then Printf.eprintf "%s\n%!" (J.to_string ~indent:false j)
  in
  let reply = Service.Client.request ~on_event cl req in
  Service.Client.close cl;
  print_endline (J.to_string reply);
  match J.get_string (J.member "type" reply) with
  | Some "result" -> exit 0
  | _ ->
    (match J.get_string (J.member "code" reply) with
     | Some name ->
       let code =
         (* map the reply's code name back to an exit code *)
         let all =
           [ Diag.Lex_error; Diag.Parse_error; Diag.Lower_error;
             Diag.Invalid_ir; Diag.Interp_error; Diag.Codegen_error;
             Diag.Encode_error; Diag.Asm_error; Diag.Exec_error;
             Diag.Mem_unaligned; Diag.Mem_mmio; Diag.Fuel_exhausted;
             Diag.Sim_deadlock; Diag.Checker_divergence; Diag.Lint_finding;
             Diag.Config_error; Diag.Snapshot_error; Diag.Proto_error;
             Diag.Service_error ]
         in
         match List.find_opt (fun c -> Diag.code_name c = name) all with
         | Some c -> Diag.exit_code c
         | None -> 1
       in
       exit code
     | None -> exit 1)

(* ---------- load generator ---------- *)

type mix_item = { mi_op : string; mi_workload : string; mi_machine : string }

let parse_mix s =
  let items =
    String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  in
  if items = [] then usage ();
  List.map
    (fun item ->
       match String.split_on_char ':' item with
       | [ op ] -> { mi_op = op; mi_workload = "fib"; mi_machine = "ss" }
       | [ op; w ] -> { mi_op = op; mi_workload = w; mi_machine = "ss" }
       | [ op; w; m ] -> { mi_op = op; mi_workload = w; mi_machine = m }
       | _ -> usage ())
    items

let mix_request (mi : mix_item) : J.t =
  match mi.mi_op with
  | "status" -> J.Obj [ ("op", J.Str "status") ]
  | "compile" ->
    J.Obj
      [ ("op", J.Str "compile");
        ("workload", J.Str mi.mi_workload);
        ("target", J.Str mi.mi_machine);
        ("quick", J.Bool true) ]
  | "simulate" ->
    J.Obj
      [ ("op", J.Str "simulate");
        ("workload", J.Str mi.mi_workload);
        ("machine", J.Str mi.mi_machine);
        ("quick", J.Bool true) ]
  | "sample" ->
    J.Obj
      [ ("op", J.Str "sample");
        ("workload", J.Str mi.mi_workload);
        ("machine", J.Str mi.mi_machine);
        ("sample", J.Str "interval=2k,warmup=500,every=2");
        ("quick", J.Bool true) ]
  | "sweep" ->
    J.Obj [ ("op", J.Str "sweep"); ("grid", J.Str "smoke") ]
  | op ->
    Printf.eprintf "straightd-client: unknown mix op %S\n%!" op;
    usage ()

(* one forked client: M requests round-robin over the mix; per-request
   latency, cached flag, and error count land in [out] as one JSON
   line the parent aggregates *)
let bench_client ~socket ~requests ~(mix : mix_item list) ~seq out =
  let cl = Service.Client.connect socket in
  let n_mix = List.length mix in
  let lats = ref [] in
  let cached = ref 0 in
  let results = ref 0 in
  let memoizable = ref 0 in
  let errors = ref 0 in
  for i = 0 to requests - 1 do
    let mi = List.nth mix ((seq + i) mod n_mix) in
    let req =
      match mix_request mi with
      | J.Obj fields ->
        J.Obj (("id", J.Str (Printf.sprintf "c%d-%d" seq i)) :: fields)
      | j -> j
    in
    let t0 = Unix.gettimeofday () in
    (match Service.Client.request cl req with
     | reply ->
       lats := (Unix.gettimeofday () -. t0) :: !lats;
       (match J.get_string (J.member "type" reply) with
        | Some "result" ->
          incr results;
          (* status/shutdown replies are never memoized; the hit rate
             only means something over the ops the store can serve *)
          (match J.get_string (J.member "op" reply) with
           | Some ("status" | "shutdown") -> ()
           | _ ->
             incr memoizable;
             (match J.member "cached" reply with
              | Some (J.Bool true) -> incr cached
              | _ -> ()))
        | _ -> incr errors)
     | exception Diag.Error _ -> incr errors)
  done;
  Service.Client.close cl;
  let doc =
    J.Obj
      [ ("latencies", J.List (List.rev_map (fun l -> J.Float l) !lats));
        ("results", J.Int !results);
        ("memoizable", J.Int !memoizable);
        ("cached", J.Int !cached);
        ("errors", J.Int !errors) ]
  in
  let oc = open_out out in
  output_string oc (J.to_string ~indent:false doc);
  output_char oc '\n';
  close_out oc

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let bench ~socket ~clients ~requests ~mix_str ~out =
  let mix = parse_mix mix_str in
  (* fail fast (exit 10) if nothing is listening before forking a fleet *)
  Service.Client.close (Service.Client.connect socket);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "straightd-bench.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init clients (fun seq ->
        let outfile = Filename.concat dir (Printf.sprintf "c%d.json" seq) in
        match Unix.fork () with
        | 0 ->
          (match bench_client ~socket ~requests ~mix ~seq outfile with
           | () -> Unix._exit 0
           | exception _ -> Unix._exit 1)
        | pid -> pid)
  in
  let spawn_failures =
    List.fold_left
      (fun acc pid ->
         match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> acc
         | _ -> acc + 1)
      0 pids
  in
  let wall = Unix.gettimeofday () -. t0 in
  let lats = ref [] in
  let results = ref 0 in
  let memoizable = ref 0 in
  let cached = ref 0 in
  let errors = ref (spawn_failures * requests) in
  List.iteri
    (fun seq _ ->
       let file = Filename.concat dir (Printf.sprintf "c%d.json" seq) in
       match
         let ic = open_in file in
         let line = input_line ic in
         close_in ic;
         J.of_string line
       with
       | doc ->
         (match J.member "latencies" doc with
          | Some (J.List ls) ->
            List.iter
              (function J.Float l -> lats := l :: !lats | _ -> ())
              ls
          | _ -> ());
         results := !results + Option.value ~default:0 (J.get_int (J.member "results" doc));
         memoizable := !memoizable + Option.value ~default:0 (J.get_int (J.member "memoizable" doc));
         cached := !cached + Option.value ~default:0 (J.get_int (J.member "cached" doc));
         errors := !errors + Option.value ~default:0 (J.get_int (J.member "errors" doc))
       | exception _ -> ())
    pids;
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with _ -> ());
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let total = (clients * requests) - (spawn_failures * requests) in
  let rps = if wall > 0.0 then float_of_int total /. wall else 0.0 in
  let hit_rate =
    if !memoizable > 0 then float_of_int !cached /. float_of_int !memoizable
    else 0.0
  in
  let report =
    J.Obj
      [ ("schema", J.Str Service.Proto.bench_schema);
        ("socket", J.Str socket);
        ("mix", J.Str mix_str);
        ("clients", J.Int clients);
        ("requests_per_client", J.Int requests);
        ("total_requests", J.Int total);
        ("results", J.Int !results);
        ("errors", J.Int !errors);
        ("memoizable", J.Int !memoizable);
        ("cache_hits", J.Int !cached);
        ("cache_hit_rate", J.Float hit_rate);
        ("wall_seconds", J.Float wall);
        ("requests_per_second", J.Float rps);
        ("latency_p50_ms", J.Float (1000.0 *. percentile sorted 0.50));
        ("latency_p95_ms", J.Float (1000.0 *. percentile sorted 0.95));
        ("latency_max_ms", J.Float (1000.0 *. percentile sorted 1.0)) ]
  in
  let text = J.to_string report in
  print_endline text;
  (match out with
   | None -> ()
   | Some f ->
     let oc = open_out f in
     output_string oc text;
     output_char oc '\n';
     close_out oc);
  exit (if !errors > 0 then 1 else 0)

(* ---------- CLI ---------- *)

let () =
  let socket = ref "straightd.sock" in
  let op = ref "status" in
  let workload = ref None in
  let machine = ref "ss" in
  let width = ref 2 in
  let predictor = ref "gshare" in
  let ideal = ref false in
  let sample = ref None in
  let target = ref "straight-re" in
  let grid = ref "smoke" in
  let machines = ref None in
  let widths = ref None in
  let workloads = ref None in
  let quick = ref true in
  let raw = ref None in
  let quiet = ref false in
  let do_bench = ref false in
  let clients = ref 8 in
  let requests = ref 16 in
  let mix = ref "simulate:fib,simulate:iota,status" in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "-socket" :: v :: rest -> socket := v; parse rest
    | "-op" :: v :: rest -> op := v; parse rest
    | "-workload" :: v :: rest -> workload := Some v; parse rest
    | "-machine" :: v :: rest -> machine := v; parse rest
    | "-width" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> width := n
       | _ -> usage ());
      parse rest
    | "-predictor" :: v :: rest -> predictor := v; parse rest
    | "-ideal" :: rest -> ideal := true; parse rest
    | "-sample" :: v :: rest -> sample := Some v; parse rest
    | "-target" :: v :: rest -> target := v; parse rest
    | "-grid" :: v :: rest -> grid := v; parse rest
    | "-machines" :: v :: rest -> machines := Some v; parse rest
    | "-widths" :: v :: rest -> widths := Some v; parse rest
    | "-workloads" :: v :: rest -> workloads := Some v; parse rest
    | "-no-quick" :: rest -> quick := false; parse rest
    | "-json" :: v :: rest -> raw := Some v; parse rest
    | "-quiet" :: rest -> quiet := true; parse rest
    | "-bench" :: rest -> do_bench := true; parse rest
    | "-clients" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> clients := n
       | _ -> usage ());
      parse rest
    | "-requests" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> requests := n
       | _ -> usage ());
      parse rest
    | "-mix" :: v :: rest -> mix := v; parse rest
    | "-out" :: v :: rest -> out := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  try
    if !do_bench then
      bench ~socket:!socket ~clients:!clients ~requests:!requests
        ~mix_str:!mix ~out:!out
    else begin
      let req =
        match !raw with
        | Some line ->
          (match J.of_string line with
           | j -> j
           | exception J.Parse_error m ->
             Printf.eprintf "straightd-client: bad -json: %s\n%!" m;
             exit 2)
        | None ->
          let need_workload () =
            match !workload with
            | Some w -> w
            | None ->
              Printf.eprintf "straightd-client: -op %s needs -workload\n%!"
                !op;
              exit 2
          in
          (match !op with
           | "status" -> J.Obj [ ("op", J.Str "status") ]
           | "shutdown" -> J.Obj [ ("op", J.Str "shutdown") ]
           | "compile" ->
             J.Obj
               [ ("op", J.Str "compile");
                 ("workload", J.Str (need_workload ()));
                 ("target", J.Str !target);
                 ("quick", J.Bool !quick) ]
           | "simulate" | "sample" ->
             J.Obj
               ([ ("op", J.Str !op);
                  ("workload", J.Str (need_workload ()));
                  ("machine", J.Str !machine);
                  ("width", J.Int !width);
                  ("predictor", J.Str !predictor);
                  ("ideal", J.Bool !ideal);
                  ("quick", J.Bool !quick) ]
                @ (match !sample with
                   | None -> []
                   | Some s -> [ ("sample", J.Str s) ]))
           | "sweep" ->
             J.Obj
               ([ ("op", J.Str "sweep");
                  ("grid", J.Str !grid);
                  ("quick", J.Bool !quick) ]
                @ (match !machines with
                   | None -> []
                   | Some s -> [ ("machines", J.Str s) ])
                @ (match !widths with
                   | None -> []
                   | Some s -> [ ("widths", J.Str s) ])
                @ (match !workloads with
                   | None -> []
                   | Some s -> [ ("workloads", J.Str s) ]))
           | op ->
             Printf.eprintf "straightd-client: unknown op %S\n%!" op;
             usage ())
      in
      one_shot ~socket:!socket ~quiet:!quiet req
    end
  with Diag.Error d ->
    Printf.eprintf "straightd-client: %s\n%!" (Diag.to_string d);
    exit (Diag.exit_code d.Diag.code)
