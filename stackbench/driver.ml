(* Whole-stack benchmark driver.

     driver.exe --workload exact|sampled|compile|verify --seed N
                --seconds S --trace 0|1

   Repeats requests for S seconds: each repetition sets the workload up
   twice (setup_s is the median of every set-up), empties any store the
   workload keeps, times one pass (pass_s, the cold request), and times
   the identical request again (warm_s).  Every pass's outputs are
   checked after it ran.  The last line of standard output is one JSON
   object: end-to-end metrics with --trace 0; per-layer metrics with
   --trace 1, where every other repetition's first pass records spans.
   The deterministic counts precede it on a line starting with
   "counts ", in both modes; every cold pass, traced or not, must
   repeat the first pass's counts.  End-to-end times are scaled to a
   reference host speed (see [Probe.sample]); the "host " line gives
   the raw medians.  See NOTES.md. *)

open Stackbench
module Json = Ooo_common.Stats.Json

module type WORKLOAD = sig
  type input
  type result

  val setup : seed:int -> input
  val prepare : input -> unit
  val pass : input -> Layer.tally -> result list
  val check : input -> result list -> result list -> (string * string) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("exact", (module W_exact)); ("sampled", (module W_sampled));
    ("compile", (module W_compile)); ("verify", (module W_verify)) ]

let counts_json (c : Counts.snapshot) =
  let fields l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.to_string ~indent:false
    (Json.Obj
       [ ("totals", fields c.Counts.sums);
         ("ops", Json.Obj (List.map (fun (k, l) -> (k, fields l)) c.Counts.ops)) ])

let write_trace path spans =
  if not (Sys.file_exists "_stackbench") then Unix.mkdir "_stackbench" 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string (Json.List (List.map Span.to_json spans))))

(* Time [f] at the host's actual speed and at the reference speed (see
   [Probe.sample]); the loop samples go to [loops]. *)
let paced loops f =
  Probe.start_paced ();
  let t0 = Probe.now () in
  let r = f () in
  let raw = Probe.now () -. t0 in
  let scaled, ks = Probe.stop_paced () in
  loops := ks @ !loops;
  (r, raw, scaled)

let run (module W : WORKLOAD) ~name ~seed ~seconds ~trace =
  let loops = ref [] in
  let setup_raw = ref [] and setup_scaled = ref [] in
  (* Two timed set-ups before every repetition spread the set-ups over
     the run's whole length, and keep everything up to the end of the
     first pass deterministic, so the peak RSS taken there repeats.  The
     passes use the input set up before the first repetition; the same
     seed gives the same input. *)
  let setup () =
    Gc.full_major ();
    Counts.reset ();
    let input, raw, scaled = paced loops (fun () -> W.setup ~seed) in
    setup_raw := raw :: !setup_raw;
    setup_scaled := scaled :: !setup_scaled;
    (input, Counts.snapshot ())
  in
  let setups () =
    ignore (setup ());
    setup ()
  in
  let input, setup_counts = setups () in
  let tally = Layer.tally () in
  (* (raw, scaled) seconds of each pass *)
  let untraced = ref [] and traced = ref [] and warm = ref [] in
  let failures = ref [] and failed_checks = ref 0 in
  let first = ref None and reps = ref [] in
  let deadline = Probe.now () +. seconds in
  let min_reps = if trace then 2 else 1 in
  Span.reset ();
  while
    List.length !reps < min_reps
    || Probe.now () +. Metrics.median !reps <= deadline
  do
    let r0 = Probe.now () in
    if !reps <> [] then ignore (setups ());
    let tracing = trace && List.length !reps mod 2 = 1 in
    W.prepare input;
    Gc.full_major ();
    Counts.reset ();
    Span.enabled := tracing;
    let cold, raw, scaled =
      paced loops (fun () -> Span.record "pass" (fun () -> W.pass input tally))
    in
    Span.enabled := false;
    if tracing then traced := (raw, scaled) :: !traced
    else untraced := (raw, scaled) :: !untraced;
    (* counts and peak memory of set-up plus one request; every later
       cold pass must repeat the counts *)
    let counts = Counts.snapshot () in
    let counts_differ =
      match !first with
      | None ->
        first := Some (counts, Probe.peak_rss_all_mb ());
        []
      | Some (c, _) ->
        List.map (fun m -> ("counts", m)) (Check.counts ~first:c counts)
    in
    Gc.full_major ();
    let again, raw, scaled = paced loops (fun () -> W.pass input tally) in
    warm := (raw, scaled) :: !warm;
    let fs = counts_differ @ W.check input cold again in
    failures := !failures @ fs;
    failed_checks :=
      !failed_checks + List.length (List.sort_uniq compare (List.map fst fs));
    reps := (Probe.now () -. r0) :: !reps
  done;
  let pass_counts, peak_rss = Option.get !first in
  let counts = Counts.merge setup_counts pass_counts in
  let med f l = Metrics.median (List.map f l) in
  print_endline ("counts " ^ counts_json counts);
  print_endline
    (Printf.sprintf
       "host {\"reference_loop_ms\": %.6f, \"raw_setup_s\": %.6f, \"raw_pass_s\": \
        %.6f, \"raw_warm_s\": %.6f}"
       (1000. *. Metrics.median !loops) (Metrics.median !setup_raw)
       (med fst !untraced) (med fst !warm));
  List.iter (fun e -> Printf.printf "FAILED %s\n" e) (List.rev tally.Layer.errors);
  List.iter (fun (l, m) -> Printf.printf "FAILED %s: %s\n" l m) !failures;
  let failed = tally.Layer.failed + !failed_checks in
  let values, table =
    if trace then begin
      let spans = Span.all () in
      write_trace (Printf.sprintf "_stackbench/trace-%s.json" name) spans;
      ( Metrics.layer_values ~spans ~passes:(List.length !traced)
          ~procs:W_sampled.procs ~counts ~pass:pass_counts
          ~overhead_ms:(1000. *. (med fst !traced -. med fst !untraced)),
        Metrics.per_layer )
    end
    else
      ( [ ("setup_s", Metrics.median !setup_scaled);
          ("pass_s", med snd !untraced); ("warm_s", med snd !warm);
          ("peak_rss_mb", peak_rss);
          ("decided_pct", Metrics.decided_pct pass_counts) ],
        Metrics.end_to_end )
  in
  print_endline
    (Metrics.render ~correct:(failed = 0) ~attempted:tally.Layer.attempted
       ~failed ~table values)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and record = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  generator and mutation seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to repeat requests");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--record-reference", Arg.Set record,
       "  print the exact simulation the sampled check compares against") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record then W_sampled.record_reference ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
      Printf.eprintf "driver: unknown workload %S (%s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
    | Some w ->
      run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
