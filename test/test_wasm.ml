(* WASM front-end battery (DESIGN.md §15).

   Three layers:
   - conformance fixtures under wasm_fixtures/: accept cases carry their
     expected console output (`;; expect:` lines) and exit code
     (`;; expect-exit:`), checked against the IR interpreter at O0/O1/O2
     and against both back ends; reject cases carry the structured Diag
     check class (`;; expect-reject:`) the front-end must raise;
   - translation validation + static lint over every WASM workload at
     every optimization level on both back ends, zero Error findings;
   - QCheck properties of the seeded WASM fuzz generator: determinism
     (same seed, same source, same SSA digest) and validity (every
     generated module type-checks and lowers). *)

module Ir = Ssa_ir.Ir

(* [dune runtest] runs in the stanza directory, [dune exec] wherever the
   user stands; accept both. *)
let fixtures_dir =
  if Sys.file_exists "wasm_fixtures" then "wasm_fixtures"
  else Filename.concat "test" "wasm_fixtures"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture_files prefix =
  Sys.readdir fixtures_dir
  |> Array.to_list
  |> List.filter (fun f ->
      String.length f > 0 && f.[0] = prefix && Filename.check_suffix f ".wat")
  |> List.sort compare

(* ---------- fixture header expectations ---------- *)

type expect = {
  output : string;          (* concatenated `;; expect:` lines *)
  exit_code : int32;        (* `;; expect-exit:`, default 0 *)
  reject : string option;   (* `;; expect-reject:` Diag check class *)
}

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.sub s 0 lp = p then
    Some (String.trim (String.sub s lp (String.length s - lp)))
  else None

let expectations src : expect =
  let out = Buffer.create 64 in
  let exit_code = ref 0l in
  let reject = ref None in
  List.iter
    (fun line ->
       let line = String.trim line in
       match strip_prefix ";; expect-exit:" line with
       | Some v -> exit_code := Int32.of_string v
       | None ->
         match strip_prefix ";; expect-reject:" line with
         | Some v -> reject := Some v
         | None ->
           match strip_prefix ";; expect:" line with
           | Some v -> Buffer.add_string out v; Buffer.add_char out '\n'
           | None -> ())
    (String.split_on_char '\n' src);
  { output = Buffer.contents out; exit_code = !exit_code; reject = !reject }

(* ---------- execution pipelines ---------- *)

(* The back ends mutate the IR they compile, so every consumer lowers its
   own copy from source. *)
let compile_at level src =
  let p = Wasm.Front.compile src in
  List.iter (Ssa_ir.Passes.optimize_at level) p.Ir.funcs;
  List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
  p

let run_interp ~level src = Ssa_ir.Interp.run (compile_at level src)

let run_straight ~level ~max_dist ~opt src =
  let p = compile_at opt src in
  let config = { Straight_cc.Codegen.max_dist; level } in
  let image =
    (Straight_core.Compile.backend (Straight_core.Compile.Straight config) p)
      .Straight_core.Compile.image
  in
  let r =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.default_config with max_insns = 10_000_000 }
      image
  in
  r.Iss.Trace.output

let run_riscv ~opt src =
  let p = compile_at opt src in
  let image =
    (Straight_core.Compile.backend Straight_core.Compile.Riscv p)
      .Straight_core.Compile.image
  in
  let r =
    Iss.Riscv_iss.run
      ~config:{ Iss.Riscv_iss.default_config with max_insns = 10_000_000 }
      image
  in
  r.Iss.Trace.output

(* ---------- accept fixtures ---------- *)

let test_accept_fixture file () =
  let src = read_file (Filename.concat fixtures_dir file) in
  let e = expectations src in
  (* interpreter at every optimization level: output and exit code *)
  List.iter
    (fun (lname, level) ->
       let out, code = run_interp ~level src in
       Alcotest.(check string) (file ^ " interp " ^ lname) e.output out;
       Alcotest.(check int32) (file ^ " exit " ^ lname) e.exit_code code)
    [ ("O0", Ssa_ir.Passes.O0); ("O1", Ssa_ir.Passes.O1);
      ("O2", Ssa_ir.Passes.O2) ];
  (* both back ends, both codegen levels, wide and tight distances *)
  List.iter
    (fun (cname, level, max_dist, opt) ->
       Alcotest.(check string) (file ^ " " ^ cname) e.output
         (run_straight ~level ~max_dist ~opt src))
    [ ("straight re+1023 O2", Straight_cc.Codegen.Re_plus, 1023,
       Ssa_ir.Passes.O2);
      ("straight raw1023 O0", Straight_cc.Codegen.Raw, 1023,
       Ssa_ir.Passes.O0);
      ("straight re+31 O2", Straight_cc.Codegen.Re_plus, 31,
       Ssa_ir.Passes.O2);
      ("straight raw31 O2", Straight_cc.Codegen.Raw, 31, Ssa_ir.Passes.O2) ];
  Alcotest.(check string) (file ^ " riscv O2") e.output
    (run_riscv ~opt:Ssa_ir.Passes.O2 src);
  Alcotest.(check string) (file ^ " riscv O0") e.output
    (run_riscv ~opt:Ssa_ir.Passes.O0 src)

(* ---------- reject fixtures ---------- *)

let test_reject_fixture file () =
  let src = read_file (Filename.concat fixtures_dir file) in
  let e = expectations src in
  let expected =
    match e.reject with
    | Some c -> c
    | None -> Alcotest.failf "%s: missing ;; expect-reject: header" file
  in
  match Wasm.Front.compile src with
  | _ -> Alcotest.failf "%s: accepted a module that must be rejected" file
  | exception Diag.Error d ->
    Alcotest.(check string) (file ^ " code") "WASM_ERROR"
      (Diag.code_name d.Diag.code);
    Alcotest.(check (option string)) (file ^ " check class")
      (Some expected)
      (List.assoc_opt "check" d.Diag.context)

(* ---------- TV + lint over the WASM workloads ---------- *)

let wasm_workloads =
  [ Workloads.wasm_sieve ~limit:200 ();
    Workloads.wasm_crc32 ~nbytes:32 ();
    Workloads.wasm_expr ~iters:20 () ]

let opt_levels =
  [ ("O0", Ssa_ir.Passes.O0); ("O1", Ssa_ir.Passes.O1);
    ("O2", Ssa_ir.Passes.O2) ]

let finding_to_string (f : Lint_report.finding) =
  Printf.sprintf "%s: %s" f.Lint_report.check f.Lint_report.message

let check_no_errors name findings =
  Alcotest.(check (list string)) name []
    (List.map finding_to_string (Lint_report.errors findings))

let test_tv_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun (lname, level) ->
            let tag what =
              Printf.sprintf "%s %s %s" w.Workloads.name lname what
            in
            let prog () = compile_at level w.Workloads.source in
            check_no_errors (tag "tv straight re+")
              (Tv.Validate.validate_straight (prog ()));
            check_no_errors (tag "tv straight raw31")
              (Tv.Validate.validate_straight
                 ~config:{ Straight_cc.Codegen.max_dist = 31;
                           level = Straight_cc.Codegen.Raw }
                 (prog ()));
            check_no_errors (tag "tv riscv")
              (Tv.Validate.validate_riscv (prog ())))
         opt_levels)
    wasm_workloads

let test_lint_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun (lname, level) ->
            let tag what =
              Printf.sprintf "%s %s %s" w.Workloads.name lname what
            in
            let simage =
              (Straight_core.Compile.backend
                 (Straight_core.Compile.Straight
                    Straight_cc.Codegen.default_config)
                 (compile_at level w.Workloads.source))
                .Straight_core.Compile.image
            in
            check_no_errors (tag "lint straight")
              (Straight_lint.Lint.lint simage);
            let rimage =
              (Straight_core.Compile.backend Straight_core.Compile.Riscv
                 (compile_at level w.Workloads.source))
                .Straight_core.Compile.image
            in
            check_no_errors (tag "lint riscv") (Riscv_lint.Lint.lint rimage))
         opt_levels)
    wasm_workloads

(* ---------- fuzz generator properties ---------- *)

let ssa_digest src =
  let p = Wasm.Front.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Ir.func_to_string p.Ir.funcs)))

let prop_gen_deterministic =
  QCheck2.Test.make ~count:60 ~name:"wasm gen: same seed, same SSA digest"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let s1 = Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate seed) in
       let s2 = Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate seed) in
       if s1 <> s2 then
         QCheck2.Test.fail_reportf "seed %d: nondeterministic source" seed
       else if ssa_digest s1 <> ssa_digest s2 then
         QCheck2.Test.fail_reportf "seed %d: nondeterministic SSA" seed
       else true)

let prop_gen_valid =
  QCheck2.Test.make ~count:120 ~name:"wasm gen: every module type-checks"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let src = Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate seed) in
       match Wasm.Front.compile src with
       | p ->
         List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
         true
       | exception Diag.Error d ->
         QCheck2.Test.fail_reportf "seed %d rejected: %s" seed
           d.Diag.message)

(* ---------- front-end sniffing ---------- *)

let test_sniffing () =
  Alcotest.(check bool) "wat sniffed" true
    (Wasm.Front.looks_like_wat
       ";; leading comment\n(module (func $main (export \"main\") \
        (result i32) (i32.const 0)))");
  Alcotest.(check bool) "minic not sniffed" false
    (Wasm.Front.looks_like_wat "int main() { return 0; }");
  Alcotest.(check bool) "wat filename" true
    (Wasm.Front.is_wat_filename "kernel.wat");
  Alcotest.(check bool) "minic filename" false
    (Wasm.Front.is_wat_filename "kernel.mc");
  (* compile_any routes each front end correctly *)
  let wat =
    "(module (func $main (export \"main\") (result i32) (i32.const 3)))"
  in
  let p = Wasm.Front.compile_any wat in
  Alcotest.(check int32) "wat via compile_any" 3l
    (snd (Ssa_ir.Interp.run p));
  let mc = "int main() { return 4; }" in
  let p = Wasm.Front.compile_any mc in
  Alcotest.(check int32) "minic via compile_any" 4l
    (snd (Ssa_ir.Interp.run p))

(* ---------- suite ---------- *)

let accept_cases =
  List.map
    (fun f -> Alcotest.test_case f `Quick (test_accept_fixture f))
    (fixture_files 'a')

let reject_cases =
  List.map
    (fun f -> Alcotest.test_case f `Quick (test_reject_fixture f))
    (fixture_files 'r')

let () =
  Alcotest.run "wasm"
    [ ("accept-fixtures", accept_cases);
      ("reject-fixtures", reject_cases);
      ("front-end",
       [ Alcotest.test_case "sniffing" `Quick test_sniffing ]);
      ("tv",
       [ Alcotest.test_case "wasm workloads x O0-O2 x both back ends"
           `Quick test_tv_workloads ]);
      ("lint",
       [ Alcotest.test_case "wasm workloads x O0-O2 x both back ends"
           `Quick test_lint_workloads ]);
      ("generator",
       [ QCheck_alcotest.to_alcotest prop_gen_deterministic;
         QCheck_alcotest.to_alcotest prop_gen_valid ]) ]
