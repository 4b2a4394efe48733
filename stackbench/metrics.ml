(* Every metric the driver prints, with its unit, and the result line.
   BENCHMARK.json declares the same names and units; the self-test
   checks the two agree. *)

module Json = Ooo_common.Stats.Json

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("warm_s", "s"); ("peak_rss_mb", "MB");
    ("decided_pct", "%") ]

(* Span name -> per-layer self-time metric. *)
let span_metrics =
  [ ("minic", "minic.ms"); ("wasm", "wasm.ms");
    ("ssa_ir.passes", "ssa_ir.passes_ms"); ("ssa_ir.interp", "ssa_ir.interp_ms");
    ("straight_cc", "straight_cc.ms"); ("riscv_cc", "riscv_cc.ms");
    ("assembler", "assembler.ms"); ("iss", "iss.ms"); ("engine", "engine.ms");
    ("sample.materialize", "sample.materialize_ms");
    ("sample.recombine", "sample.recombine_ms"); ("pool", "pool.wall_ms");
    ("tv", "tv.ms"); ("lint", "lint.ms"); ("fuzz.diff", "fuzz.diff_ms") ]

let cpi_buckets = [ "base"; "frontend"; "branch_squash"; "memory"; "structural" ]

(* Counters reported as they were taken. *)
let count_metrics =
  [ ("ir.insns", "count"); ("ssa_ir.insns_removed", "count");
    ("straight_cc.insns", "count"); ("straight_cc.rmov", "count");
    ("straight_cc.nop", "count"); ("riscv_cc.insns", "count");
    ("assembler.words", "count"); ("iss.retired", "count");
    ("engine.cycles", "cycles"); ("engine.committed", "count");
    ("engine.checked_commits", "count"); ("sample.intervals", "count");
    ("sample.store_bytes", "bytes"); ("sample.est_cycles", "cycles");
    ("pool.retries", "count"); ("pool.worker_deaths", "count");
    ("tv.validations", "count"); ("tv.abstains", "count");
    ("tv.errors", "count"); ("tv.mutants_tried", "count");
    ("tv.mutants_caught", "count"); ("tv.mutants_skipped", "count");
    ("lint.findings", "count") ]

let per_layer =
  List.map (fun (_, m) -> (m, "ms")) span_metrics
  @ count_metrics
  @ List.map (fun b -> ("engine.cpi_" ^ b, "cycles/insn")) cpi_buckets
  @ [ ("iss.minsn_per_s", "Minsn/s"); ("iss.alloc_words_per_insn", "words/insn");
      ("engine.kcycles_per_s", "kcycles/s");
      ("engine.alloc_words_per_insn", "words/insn");
      ("sample.run_file_ms", "ms"); ("pool.busy_ms", "ms"); ("pool.util", "ratio");
      ("trace.coverage_pct", "%"); ("trace.overhead_ms", "ms") ]

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b > 0. then a /. b else 0.
let lookup k l = Option.value ~default:0. (List.assoc_opt k l)

(* Share of TV validations that reached a verdict.  Only the validator
   can abstain, so a workload without validations decides all of its
   verdicts. *)
let decided_pct (c : Counts.snapshot) =
  let v = lookup "tv.validations" c.Counts.sums in
  if v > 0. then 100. *. (v -. lookup "tv.abstains" c.Counts.sums) /. v
  else 100.

(* Per-layer values of a traced run.  [spans] come from [passes] traced
   passes and give per-pass self times; [counts] are the set-up and
   first-pass counts, [pass] the first pass's alone (rates divide a
   pass's work by a pass's time). *)
let layer_values ~(spans : Span.t list) ~passes ~procs
    ~(counts : Counts.snapshot) ~(pass : Counts.snapshot) ~overhead_ms :
  (string * float) list =
  let self = Span.self_by_name spans in
  let per_pass x = ratio x (float_of_int passes) in
  let ms span = per_pass (1000. *. lookup span self) in
  let c k = lookup k counts.Counts.sums and p k = lookup k pass.Counts.sums in
  let run_files =
    List.filter_map
      (fun (s : Span.t) ->
         if s.Span.name = "sample.run_file" then Some (1000. *. Span.duration s)
         else None)
      spans
  in
  let busy_ms = per_pass (List.fold_left ( +. ) 0. run_files) in
  List.map (fun (span, m) -> (m, ms span)) span_metrics
  @ List.map (fun (k, _) -> (k, c k)) count_metrics
  @ List.map
    (fun b ->
       ("engine.cpi_" ^ b, ratio (p ("engine.cpi." ^ b)) (p "engine.committed")))
    cpi_buckets
  @ [ ("iss.minsn_per_s", ratio (p "iss.retired") (1000. *. ms "iss"));
      ("iss.alloc_words_per_insn", ratio (p "iss.alloc_words") (p "iss.retired"));
      ("engine.kcycles_per_s", ratio (p "engine.cycles") (ms "engine"));
      ("engine.alloc_words_per_insn",
       ratio (p "engine.alloc_words") (p "engine.committed"));
      ("sample.run_file_ms", median run_files); ("pool.busy_ms", busy_ms);
      ("pool.util", ratio busy_ms (ms "pool" *. float_of_int procs));
      ("trace.coverage_pct", 100. *. Span.coverage ~root:"pass" spans);
      ("trace.overhead_ms", overhead_ms) ]

(* The last line of a run: every metric of [table] with its unit. *)
let render ~correct ~attempted ~failed ~table (values : (string * float) list) =
  let num v = if Float.is_finite v then Json.Float v else Json.Null in
  Json.to_string ~indent:false
    (Json.Obj
       [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics",
          Json.Obj
            (List.map
               (fun (name, unit_) ->
                  ( name,
                    Json.Obj
                      [ ("value", num (lookup name values));
                        ("unit", Json.Str unit_) ] ))
               table)) ])
