(* fuzz — differential fuzzer and static verifier driver.

   Default mode generates [count] seeded random MiniC programs starting
   at [seed], runs each through every toolchain consumer (SSA
   interpreter, straight_cc at both optimization levels and two max_dist
   settings, riscv_cc) and compares console output, exit value and final
   global memory against the unoptimized-interpreter reference; the
   STRAIGHT images are additionally passed through the static linter.

     fuzz -seed 1 -count 200            # a fixed, reproducible campaign
     fuzz -seed 7 -count 1 -shrink      # minimize a known-bad seed
     fuzz -lint-only -count 500         # linter coverage without execution
     fuzz -lint-workloads               # verify every benchmark image
     fuzz ... -json report.json         # machine-readable failure report
     fuzz ... -corpus DIR               # persist failures incrementally

   With -corpus, each failure is written to DIR the moment it is found
   (atomic tmp+rename, so a kill can never leave a torn file), and a
   progress marker records the last completed seed so a restarted
   campaign with the same -seed/-count resumes where it was killed
   instead of re-fuzzing from the start. *)

module File = Snapshot.File

let usage = "usage: fuzz [-seed N] [-count N] [-target minic|wasm] [-shrink] [-lint-only] [-lint-workloads] [-tv] [-tv-workloads] [-tv-mutations N] [-json FILE] [-corpus DIR] [-v]"

type failure = {
  f_seed : int;
  f_kind : string;                (* "diverged" | "crashed" | "lint" *)
  f_detail : string list;
  f_source : string;              (* MiniC source, "" for workload lints *)
  f_minimized : string option;
}

let failure_json (f : failure) : Json.t =
  Json.Obj
    ([ ("seed", Json.Int f.f_seed);
       ("kind", Json.Str f.f_kind);
       ("detail", Json.List (List.map (fun d -> Json.Str d) f.f_detail));
       ("source", Json.Str f.f_source) ]
     @ match f.f_minimized with
     | None -> []
     | Some m -> [ ("minimized", Json.Str m) ])

(* -corpus persistence: every write is tmp+rename so a SIGKILL mid-write
   can never leave a torn or half-visible file in the corpus. *)
let corpus_save (dir : string) ~(ext : string) (f : failure) : unit =
  let stem = Filename.concat dir (Printf.sprintf "seed-%05d" f.f_seed) in
  let save path s = File.write_atomic path (fun oc -> output_string oc s) in
  save (stem ^ ".json") (Json.to_string (failure_json f));
  if f.f_source <> "" then save (stem ^ ext) f.f_source;
  match f.f_minimized with
  | Some m -> save (stem ^ ".min" ^ ext) m
  | None -> ()

(* progress marker: last fully processed seed, updated after each seed
   so a restarted campaign resumes at the next one. *)
let corpus_mark (dir : string) (s : int) : unit =
  File.write_atomic (Filename.concat dir "progress") (fun oc ->
      Printf.fprintf oc "%d\n" s)

let corpus_last_done (dir : string) : int option =
  let path = Filename.concat dir "progress" in
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        Option.bind (In_channel.input_line ic) int_of_string_opt)
  else None

(* Coarse failure fingerprint used by the shrinker: a candidate must
   reproduce the same kind of failure on the same target.  (Field names
   include memory indices that legitimately shift while shrinking, so
   they are not part of the signature.) *)
let signature (o : Fuzz.Diff.outcome) : string option =
  match o with
  | Fuzz.Diff.Agree _ -> None
  | Fuzz.Diff.Diverged divs ->
    let targets =
      List.sort_uniq compare (List.map (fun d -> d.Fuzz.Diff.target) divs)
    in
    Some ("diverged:" ^ String.concat "," targets)
  | Fuzz.Diff.Crashed { target; _ } -> Some ("crashed:" ^ target)

let outcome_detail (o : Fuzz.Diff.outcome) : string list =
  match o with
  | Fuzz.Diff.Agree _ -> []
  | Fuzz.Diff.Diverged divs ->
    List.map (Format.asprintf "%a" Fuzz.Diff.pp_divergence) divs
  | Fuzz.Diff.Crashed { target; message } ->
    [ Printf.sprintf "%s: %s" target message ]

(* Compile one source to every target and run the static verifiers over
   the linked images: STRAIGHT at both codegen levels through
   [Straight_lint], RV32IM through the full [Riscv_lint] dataflow
   verifier.  [opt] selects the shared middle-end level.  Compile
   crashes are only reported in lint-only mode: the differential run
   already reports them. *)
let lint_source ?(opt = Ssa_ir.Passes.O2) ~(report_crash : bool)
    (src : string) : string list =
  let lint_one label image =
    List.map
      (fun f ->
         Printf.sprintf "%s: %s" label (Lint_report.finding_to_string f))
      (Straight_lint.Lint.lint image)
  in
  let straight level label =
    match
      Straight_core.Compile.compile ~opt
        (Straight_core.Compile.Straight
           { Straight_cc.Codegen.max_dist = Straight_isa.Isa.max_dist; level })
        src
    with
    | out -> lint_one label out.Straight_core.Compile.image
    | exception e when report_crash ->
      [ Printf.sprintf "%s: compile crashed: %s" label (Printexc.to_string e) ]
    | exception _ -> []
  in
  let riscv () =
    match Straight_core.Compile.compile ~opt Straight_core.Compile.Riscv src with
    | out ->
      List.map
        (fun f ->
           Printf.sprintf "riscv: %s" (Lint_report.finding_to_string f))
        (Riscv_lint.Lint.lint out.Straight_core.Compile.image)
    | exception e when report_crash ->
      [ Printf.sprintf "riscv: compile crashed: %s" (Printexc.to_string e) ]
    | exception _ -> []
  in
  straight Straight_cc.Codegen.Re_plus "straight-re+"
  @ straight Straight_cc.Codegen.Raw "straight-raw"
  @ riscv ()

let opt_levels =
  [ (Ssa_ir.Passes.O0, "O0"); (Ssa_ir.Passes.O1, "O1");
    (Ssa_ir.Passes.O2, "O2") ]

(* The benchmark programs [-lint-workloads] and [-tv-workloads] cover. *)
let workloads () =
  [ Workloads.dhrystone (); Workloads.coremark (); Workloads.fib ();
    Workloads.iota (); Workloads.sort (); Workloads.quicksort ();
    Workloads.pointer_chase () ]
  @ Workloads.all_wasm ()

(* ---- translation validation (lib/tv) ---- *)

let tv_config level =
  { Straight_cc.Codegen.max_dist = Straight_isa.Isa.max_dist; level }

(* Validate one source through every back-end configuration; each run
   returns the number of functions it validated and the findings.
   [tv-abstain] Infos are the validator explicitly giving up on a
   function: never a pass, and counted on every surface. *)
let tv_runs ?(opt = Ssa_ir.Passes.O2) (src : string) :
  (string * (unit -> int * Lint_report.finding list)) list =
  let run validate () =
    let p = Straight_core.Compile.frontend ~opt src in
    (List.length p.Ssa_ir.Ir.funcs, validate p)
  in
  [ ("straight-re+",
     run
       (Tv.Validate.validate_straight
          ~config:(tv_config Straight_cc.Codegen.Re_plus)));
    ("straight-raw",
     run
       (Tv.Validate.validate_straight
          ~config:(tv_config Straight_cc.Codegen.Raw)));
    ("riscv", run Tv.Validate.validate_riscv) ]

let abstentions findings =
  List.filter (fun f -> f.Lint_report.check = "tv-abstain") findings

(* Returns the function validations, the abstentions and the failure
   lines: only [Error] findings fail a seed. *)
let tv_source ?(opt = Ssa_ir.Passes.O2) ~(report_crash : bool)
    (src : string) : int * int * string list =
  List.fold_left
    (fun (nv, na, lines) (tname, run) ->
       match run () with
       | nfuncs, findings ->
         ( nv + nfuncs,
           na + List.length (abstentions findings),
           lines
           @ List.map
               (fun f ->
                  Printf.sprintf "%s: %s" tname
                    (Lint_report.finding_to_string f))
               (Lint_report.errors findings) )
       | exception e when report_crash ->
         ( nv, na,
           lines
           @ [ Printf.sprintf "%s: tv crashed: %s" tname
                 (Printexc.to_string e) ] )
       | exception _ -> (nv, na, lines))
    (0, 0, []) (tv_runs ~opt src)

(* [-tv-workloads]: every benchmark x middle-end level x back-end
   configuration.  An [Error] finding or an abstention fails the
   configuration.  Returns the labeled finding groups (for the
   [straight-tv/1] JSON report) alongside the failures. *)
let tv_workloads () :
  (string * Lint_report.finding list) list * failure list =
  let groups = ref [] and failures = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun (opt, oname) ->
            List.iter
              (fun (tname, run) ->
                 let label =
                   Printf.sprintf "%s:%s:%s" w.Workloads.name tname oname
                 in
                 match run () with
                 | _, findings ->
                   groups := (label, findings) :: !groups;
                   let errs = Lint_report.errors findings in
                   let abst = abstentions findings in
                   if errs = [] && abst = [] then
                     Printf.printf "tv %-32s validated\n%!" label
                   else begin
                     Printf.printf "tv %-32s %d error%s, %d abstained\n%!"
                       label (List.length errs)
                       (if List.length errs = 1 then "" else "s")
                       (List.length abst);
                     failures :=
                       { f_seed = -1; f_kind = "tv";
                         f_detail =
                           List.map
                             (fun f ->
                                label ^ ": " ^ Lint_report.finding_to_string f)
                             (errs @ abst);
                         f_source = ""; f_minimized = None }
                       :: !failures
                   end
                 | exception e ->
                   failures :=
                     { f_seed = -1; f_kind = "tv";
                       f_detail =
                         [ Printf.sprintf "%s: tv crashed: %s" label
                             (Printexc.to_string e) ];
                       f_source = ""; f_minimized = None }
                     :: !failures)
              (tv_runs ~opt w.Workloads.source))
         opt_levels)
    (workloads ());
  (List.rev !groups, List.rev !failures)

(* Behavioral fingerprint of an image on the functional simulator:
   console output plus main's return value, or the failure class.  Used
   to separate genuine validator misses from semantically invisible
   mutations (e.g. dropping a copy of a value nothing deeper reads). *)
let iss_fingerprint (image : Assembler.Image.t) : string =
  let config =
    { Iss.Straight_iss.default_config with
      Iss.Straight_iss.max_insns = 2_000_000 }
  in
  match Iss.Straight_iss.start ~config image with
  | session ->
    (match Iss.Straight_iss.run_session session with
     | () ->
       let r = Iss.Straight_iss.finish session in
       Printf.sprintf "ok:%ld:%s"
         (Iss.Straight_iss.exit_value session) r.Iss.Trace.output
     | exception e -> "fault:" ^ Printexc.to_string e)
  | exception e -> "fault:" ^ Printexc.to_string e

(* [-tv-mutations N]: seeded single-instruction breakage of freshly
   generated STRAIGHT code; the validator must reject each one with an
   [Error] finding naming the mutated function.  Seeds walk upward from
   [base] until [n] mutations were caught; an uncaught mutation whose
   ISS behavior actually changed is an immediate failure (a validator
   blind spot), an uncaught behavior-preserving one is skipped, and
   running out of the seed budget without [n] catches fails too. *)
let tv_mutations ~(base : int) (n : int) : failure list =
  let caught = ref 0 and tried = ref 0 and fails = ref [] in
  let seed = ref base in
  let budget = base + (40 * n) in
  while !caught < n && !fails = [] && !seed < budget do
    let s = !seed in
    incr seed;
    let fresh () =
      Straight_core.Compile.frontend ~opt:Ssa_ir.Passes.O1
        (Fuzz.Gen.render (Fuzz.Gen.generate s))
    in
    match Tv.Validate.mutation_trial ~config:(tv_config Straight_cc.Codegen.Re_plus) ~fresh ~seed:s () with
    | None -> ()
    | Some m ->
      incr tried;
      if m.Tv.Validate.m_caught then begin
        incr caught;
        Printf.printf "tv-mutation seed %-4d caught     %s\n%!" s
          m.Tv.Validate.m_desc
      end
      else begin
        let equivalent =
          match m.Tv.Validate.m_images with
          | Some (orig, mutated) ->
            iss_fingerprint orig = iss_fingerprint mutated
          | None -> false
        in
        if equivalent then begin
          decr tried;
          Printf.printf "tv-mutation seed %-4d equivalent %s (skipped)\n%!"
            s m.Tv.Validate.m_desc
        end
        else begin
          Printf.printf "tv-mutation seed %-4d MISSED     %s\n%!" s
            m.Tv.Validate.m_desc;
          fails :=
            [ { f_seed = s; f_kind = "tv-mutation";
                f_detail =
                  (Printf.sprintf "validator missed: %s" m.Tv.Validate.m_desc)
                  :: List.map Lint_report.finding_to_string
                       m.Tv.Validate.m_findings;
                f_source = ""; f_minimized = None } ]
        end
      end
    | exception e ->
      fails :=
        [ { f_seed = s; f_kind = "tv-mutation";
            f_detail =
              [ Printf.sprintf "mutation trial crashed: %s"
                  (Printexc.to_string e) ];
            f_source = ""; f_minimized = None } ]
  done;
  if !caught < n && !fails = [] then
    fails :=
      [ { f_seed = -1; f_kind = "tv-mutation";
          f_detail =
            [ Printf.sprintf
                "only %d/%d mutations caught within the seed budget (%d \
                 trials)" !caught n !tried ];
          f_source = ""; f_minimized = None } ];
  if !fails = [] then
    Printf.printf "tv-mutations: %d/%d injected bugs rejected (%d trials)\n%!"
      !caught n !tried;
  !fails

(* [-lint-workloads]: every benchmark, every middle-end level, both
   ISAs.  Also writes a JSON report when [-json] is given (handled by
   the caller through the returned failures). *)
let lint_workloads () : failure list =
  List.concat_map
    (fun (w : Workloads.t) ->
       List.filter_map
         (fun (opt, oname) ->
            let label = Printf.sprintf "%s -%s" w.Workloads.name oname in
            let findings =
              List.map (fun d -> label ^ ": " ^ d)
                (lint_source ~opt ~report_crash:true w.Workloads.source)
            in
            if findings = [] then begin
              Printf.printf "lint %-14s %s clean\n%!" w.Workloads.name oname;
              None
            end
            else
              Some { f_seed = -1; f_kind = "lint"; f_detail = findings;
                     f_source = ""; f_minimized = None })
         opt_levels)
    (workloads ())

let () =
  let seed = ref 1 in
  let count = ref 100 in
  let do_shrink = ref false in
  let lint_only = ref false in
  let workloads_only = ref false in
  let do_tv = ref false in
  let tv_workloads_only = ref false in
  let tv_mutations_n = ref 0 in
  let json_file = ref "" in
  let corpus = ref "" in
  let verbose = ref false in
  let gen_target = ref "minic" in
  Arg.parse
    [ ("-seed", Arg.Set_int seed, "N  first seed (default 1)");
      ("-count", Arg.Set_int count, "N  number of seeds (default 100)");
      ("-target", Arg.Set_string gen_target,
       "minic|wasm  program generator for the campaign (default minic)");
      ("-shrink", Arg.Set do_shrink, "  minimize each failing program");
      ("-lint-only", Arg.Set lint_only,
       "  only lint the generated images, skip differential execution");
      ("-lint-workloads", Arg.Set workloads_only,
       "  lint every benchmark image from both back ends, then exit");
      ("-tv", Arg.Set do_tv,
       "  also run the translation validator over every generated seed");
      ("-tv-workloads", Arg.Set tv_workloads_only,
       "  validate every benchmark translation from both back ends, then \
        exit (-json writes a straight-tv/1 report)");
      ("-tv-mutations", Arg.Set_int tv_mutations_n,
       "N  inject N seeded codegen bugs; each must be rejected");
      ("-json", Arg.Set_string json_file, "FILE  write a JSON failure report");
      ("-corpus", Arg.Set_string corpus,
       "DIR  persist each failure as it is found; resume a killed campaign");
      ("-v", Arg.Set verbose, "  print every seed as it runs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !gen_target <> "minic" && !gen_target <> "wasm" then begin
    Printf.eprintf "fuzz: unknown -target %s (minic|wasm)\n" !gen_target;
    exit 2
  end;
  let src_ext = if !gen_target = "wasm" then ".wat" else ".minic" in
  let failures = ref [] in
  (* prior failures already persisted in the corpus for this seed range
     (from the killed run we are resuming) still count toward the exit
     status even though this invocation skips their seeds *)
  let prior_failures = ref 0 in
  let first = ref !seed in
  let batch_mode =
    !workloads_only || !tv_workloads_only || !tv_mutations_n > 0
  in
  if !corpus <> "" && not batch_mode then begin
    File.mkdir_p !corpus;
    (match corpus_last_done !corpus with
     | Some last when last >= !seed ->
       first := last + 1;
       Array.iter
         (fun f ->
            try
              Scanf.sscanf f "seed-%d.json%!" (fun s ->
                  if s >= !seed && s < !first then incr prior_failures)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
         (Sys.readdir !corpus);
       if !first < !seed + !count then
         Printf.eprintf
           "fuzz: corpus %s covers seeds %d-%d (%d failure%s); resuming at %d\n%!"
           !corpus !seed last !prior_failures
           (if !prior_failures = 1 then "" else "s") !first
     | _ -> ())
  end;
  let tv_groups = ref [] in
  let tv_validations = ref 0 and tv_abstained = ref 0 in
  if !workloads_only then failures := lint_workloads ()
  else if !tv_workloads_only then begin
    let groups, fs = tv_workloads () in
    tv_groups := groups;
    failures := List.rev fs
  end
  else if !tv_mutations_n > 0 then
    failures := List.rev (tv_mutations ~base:!seed !tv_mutations_n)
  else begin
    for s = !first to !seed + !count - 1 do
      (* [shrink_min keep] re-renders the minimized program; the keep
         predicate sees rendered source, so one shrink loop serves both
         generators *)
      let src, shrink_min =
        if !gen_target = "wasm" then begin
          let prog = Fuzz.Gen_wasm.generate s in
          ( Fuzz.Gen_wasm.render prog,
            fun (keep : string -> bool) ->
              Fuzz.Gen_wasm.render
                (Fuzz.Gen_wasm.shrink
                   ~still_fails:(fun p -> keep (Fuzz.Gen_wasm.render p))
                   prog) )
        end
        else begin
          let prog = Fuzz.Gen.generate s in
          ( Fuzz.Gen.render prog,
            fun (keep : string -> bool) ->
              Fuzz.Gen.render
                (Fuzz.Shrink.shrink
                   ~still_fails:(fun p -> keep (Fuzz.Gen.render p))
                   prog) )
        end
      in
      if !verbose then Printf.printf "seed %d (%d bytes)\n%!" s (String.length src);
      (* static verification of the images this seed produces *)
      let add_failure f =
        failures := f :: !failures;
        if !corpus <> "" then corpus_save !corpus ~ext:src_ext f
      in
      let lint_findings = lint_source ~report_crash:!lint_only src in
      if lint_findings <> [] then
        add_failure
          { f_seed = s; f_kind = "lint"; f_detail = lint_findings;
            f_source = src; f_minimized = None };
      if !do_tv then begin
        let nv, na, tv_findings = tv_source ~report_crash:!lint_only src in
        tv_validations := !tv_validations + nv;
        tv_abstained := !tv_abstained + na;
        if tv_findings <> [] then
          add_failure
            { f_seed = s; f_kind = "tv"; f_detail = tv_findings;
              f_source = src; f_minimized = None }
      end;
      (* differential execution *)
      if not !lint_only then begin
        match Fuzz.Diff.check src with
        | Fuzz.Diff.Agree _ -> ()
        | outcome ->
          let sig_ = signature outcome in
          let minimized =
            if !do_shrink then begin
              let keep src' =
                match signature (Fuzz.Diff.check src') with
                | s' -> s' = sig_
                | exception _ -> false
              in
              Some (shrink_min keep)
            end
            else None
          in
          let kind =
            match outcome with
            | Fuzz.Diff.Crashed _ -> "crashed"
            | _ -> "diverged"
          in
          add_failure
            { f_seed = s; f_kind = kind; f_detail = outcome_detail outcome;
              f_source = src; f_minimized = minimized }
      end;
      if !corpus <> "" then corpus_mark !corpus s
    done
  end;
  let failures = List.rev !failures in
  if !do_tv && not batch_mode then
    Printf.printf "tv: %d validations, %d abstained\n" !tv_validations
      !tv_abstained;
  if !json_file <> "" then begin
    let report =
      if !tv_workloads_only then
        (* the machine-readable TV report keeps every finding, including
           abstentions, under the straight-tv/1 schema *)
        Lint_report.report_json ~schema:"straight-tv/1" !tv_groups
      else
        Json.Obj [ ("failures", Json.List (List.map failure_json failures)) ]
    in
    Out_channel.with_open_text !json_file (fun oc ->
        output_string oc (Json.to_string report))
  end;
  match failures with
  | [] when !prior_failures > 0 ->
    Printf.eprintf
      "fuzz: no new failures, but corpus %s holds %d failure%s from the \
       resumed range\n" !corpus !prior_failures
      (if !prior_failures = 1 then "" else "s");
    exit (Diag.exit_code Diag.Checker_divergence)
  | [] ->
    if not batch_mode then
      Printf.printf "fuzz: %d seeds from %d: all executions agree, images lint clean\n"
        !count !seed;
    exit 0
  | fs ->
    List.iter
      (fun f ->
         let d =
           Diag.make ~context:[ ("seed", string_of_int f.f_seed) ]
             Diag.Checker_divergence
             (Printf.sprintf "%s (%d finding%s)" f.f_kind
                (List.length f.f_detail)
                (if List.length f.f_detail = 1 then "" else "s"))
         in
         Printf.eprintf "%s\n" (Diag.to_string d);
         List.iter (fun line -> Printf.eprintf "  %s\n" line) f.f_detail;
         if f.f_source <> "" then
           Printf.eprintf "--- source (seed %d) ---\n%s" f.f_seed f.f_source;
         (match f.f_minimized with
          | Some m -> Printf.eprintf "--- minimized ---\n%s" m
          | None -> ()))
      fs;
    Printf.eprintf "fuzz: %d failing seed%s\n" (List.length fs)
      (if List.length fs = 1 then "" else "s");
    exit (Diag.exit_code Diag.Checker_divergence)
