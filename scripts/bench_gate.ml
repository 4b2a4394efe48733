(* CI perf-regression gate: compare a freshly measured bench JSON
   (bench/main.exe --json) against the checked-in baseline.

     bench_gate [BASELINE.json] [FRESH.json]

   Defaults: BENCH_baseline.json and bench.json in the current
   directory.  The gate fails (exit 1) when, for any model x workload
   entry of the baseline:

   - the entry is missing from the fresh measurement,
   - host throughput regressed by more than 10% (the engine got slower
     to run) — compared on the best-of-N repetition ("khz_best", the
     noise-robust statistic; "khz_median" is the fallback for files
     that predate it), or
   - IPC drifted by more than +/-0.5% (simulated timing changed: the
     engine is supposed to be cycle-exact across optimization work, so
     any drift is a correctness signal, not noise — reference cycle
     counts are also pinned exactly by test/test_stats.ml).

   Throughput improvements and new entries are reported but never
   fail. *)

let thr_tolerance = 0.10  (* fractional host-throughput regression *)
let ipc_tolerance = 0.005 (* fractional IPC drift, either direction *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load path =
  if not (Sys.file_exists path) then die "bench_gate: %s not found" path;
  let text = In_channel.with_open_text path In_channel.input_all in
  match Json.of_string text with
  | j -> j
  | exception Json.Parse_error m -> die "bench_gate: %s: %s" path m

let entries path j =
  match Json.get_list (Json.member "entries" j) with
  | Some es -> es
  | None -> die "bench_gate: %s has no \"entries\" list" path

let entry_key e =
  match
    ( Json.get_string (Json.member "model" e),
      Json.get_string (Json.member "target" e),
      Json.get_string (Json.member "workload" e) )
  with
  | Some m, Some t, Some w -> Printf.sprintf "%s|%s|%s" m t w
  | _ -> die "bench_gate: entry missing model/target/workload"

let need_float name e =
  match Json.get_float (Json.member name e) with
  | Some f -> f
  | None -> die "bench_gate: entry %s missing %s" (entry_key e) name

let khz e =
  match Json.get_float (Json.member "khz_best" e) with
  | Some f -> f
  | None -> need_float "khz_median" e

(* On GitHub Actions, mirror the comparison table onto the run's summary
   page ($GITHUB_STEP_SUMMARY is a file path; appending markdown to it
   renders on the workflow run).  A no-op everywhere else. *)
let write_step_summary ~rows ~failures =
  match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | None | Some "" -> ()
  | Some path ->
    (* Entry keys are "model|target|workload"; a raw '|' splits a
       markdown table cell even inside a code span, so escape it. *)
    let escape_pipes s =
      String.concat "\\|" (String.split_on_char '|' s)
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc "### Perf gate\n\n";
    output_string oc
      "| entry | base kc/s | fresh kc/s | speed | IPC drift |\n\
       |---|---:|---:|---:|---:|\n";
    List.iter
      (fun (key, b_khz, f_khz, speed, drift) ->
         Printf.fprintf oc "| `%s` | %.1f | %.1f | %.2fx | %+.3f%% |\n"
           (escape_pipes key) b_khz f_khz speed (100.0 *. drift))
      (List.rev rows);
    if failures > 0 then
      Printf.fprintf oc "\n**FAIL** — %d regression(s); see the job log.\n"
        failures
    else output_string oc "\nOK — no regressions.\n";
    close_out oc

let () =
  let baseline_path = ref "BENCH_baseline.json" in
  let fresh_path = ref "bench.json" in
  (match Array.to_list Sys.argv |> List.tl with
   | [] -> ()
   | [ b ] -> baseline_path := b
   | [ b; f ] -> baseline_path := b; fresh_path := f
   | _ -> die "usage: bench_gate [BASELINE.json] [FRESH.json]");
  let baseline = load !baseline_path and fresh = load !fresh_path in
  let base_entries = entries !baseline_path baseline in
  let fresh_entries = entries !fresh_path fresh in
  let fresh_tbl = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace fresh_tbl (entry_key e) e) fresh_entries;
  let failures = ref 0 in
  let rows = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL  %s\n" m) fmt
  in
  Printf.printf "bench_gate: %s (baseline) vs %s (fresh)\n" !baseline_path
    !fresh_path;
  Printf.printf "%-42s %10s %10s %8s %9s\n" "entry" "base kc/s" "fresh kc/s"
    "speed" "ipc drift";
  List.iter
    (fun be ->
       let key = entry_key be in
       match Hashtbl.find_opt fresh_tbl key with
       | None -> fail "%s: missing from fresh measurement" key
       | Some fe ->
         let b_khz = khz be in
         let f_khz = khz fe in
         let b_ipc = need_float "ipc" be in
         let f_ipc = need_float "ipc" fe in
         let speed = f_khz /. b_khz in
         let drift = (f_ipc -. b_ipc) /. b_ipc in
         Printf.printf "%-42s %10.1f %10.1f %7.2fx %8.3f%%\n" key b_khz f_khz
           speed (100.0 *. drift);
         rows := (key, b_khz, f_khz, speed, drift) :: !rows;
         if speed < 1.0 -. thr_tolerance then
           fail "%s: host throughput regressed %.1f%% (%.1f -> %.1f kc/s)"
             key (100.0 *. (1.0 -. speed)) b_khz f_khz;
         if Float.abs drift > ipc_tolerance then
           fail "%s: IPC drifted %.3f%% (%.4f -> %.4f): simulated timing \
                 changed" key (100.0 *. drift) b_ipc f_ipc)
    base_entries;
  List.iter
    (fun fe ->
       let key = entry_key fe in
       if not (List.exists (fun be -> entry_key be = key) base_entries) then
         Printf.printf "NOTE  %s: new entry (not in baseline)\n" key)
    fresh_entries;
  write_step_summary ~rows:!rows ~failures:!failures;
  if !failures > 0 then begin
    Printf.printf "bench_gate: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "bench_gate: OK"
