(* Tests for the RV32IM binary verifier (lib/riscv_lint): hand-assembled
   fixture pairs under lint_fixtures/ — one accepted and one rejected
   image per check — plus synthetic word images for the checks that
   cannot be expressed in assembly (illegal opcodes, out-of-bounds
   targets, fall-through), and the compiled-workload acceptance sweep at
   every middle-end level. *)

module Lint = Riscv_lint.Lint
module Isa = Riscv_isa.Isa
module Enc = Riscv_isa.Encoding
module Image = Assembler.Image

(* [dune runtest] runs in the stanza directory, [dune exec] wherever the
   user stands; accept both. *)
let read_fixture (name : string) : string =
  let file = Filename.concat "lint_fixtures" name in
  let path =
    if Sys.file_exists file then file else Filename.concat "test" file
  in
  In_channel.with_open_text path In_channel.input_all

let assemble_fixture (name : string) : Image.t =
  Assembler.Asm.Riscv.assemble_source ~entry:"_start" (read_fixture name)

let checks_of (findings : Lint.finding list) : string list =
  List.sort_uniq compare (List.map (fun (f : Lint.finding) -> f.Lint.check) findings)

let pp_findings findings =
  String.concat "; " (List.map Lint_report.finding_to_string findings)

(* Each pair: fixture base name, the one check its reject image must
   trip.  The accept image must produce zero findings; the reject image
   must be rejected by exactly the intended checker. *)
let fixture_pairs =
  [ ("uninit_read", "uninit-read");
    ("callee_saved", "callee-saved-clobbered");
    ("sp_balance", "stack-imbalance");
    ("frame_bounds", "frame-bounds");
    ("target_align", "target-align") ]

let test_fixtures_accepted () =
  List.iter
    (fun (name, _) ->
       let image = assemble_fixture ("accept_" ^ name ^ ".s") in
       match Lint.lint image with
       | [] -> ()
       | fs ->
         Alcotest.failf "accept_%s.s should lint clean, got: %s" name
           (pp_findings fs))
    fixture_pairs

let test_fixtures_rejected () =
  List.iter
    (fun (name, check) ->
       let image = assemble_fixture ("reject_" ^ name ^ ".s") in
       let findings = Lint.lint image in
       Alcotest.(check bool)
         (Printf.sprintf "reject_%s.s has findings" name)
         true (findings <> []);
       Alcotest.(check (list string))
         (Printf.sprintf "reject_%s.s rejected by %s only" name check)
         [ check ] (checks_of findings))
    fixture_pairs

(* ---------- synthetic word images ---------- *)

let image_of_words ?(entry_word = 0) words =
  let base = Assembler.Layout.text_base in
  { Image.isa = Image.Riscv;
    entry = base + (4 * entry_word);
    text_base = base;
    text = Array.of_list words;
    data_base = Assembler.Layout.data_base;
    data = [||];
    symbols = [] }

let has_check name findings =
  List.exists (fun (f : Lint.finding) -> f.Lint.check = name) findings

let nop = Enc.encode (Isa.Alui (Isa.Addi, 0, 0, 0))

let test_lint_rejects_words () =
  (* a word with no RV32IM decoding *)
  let bad = image_of_words [ 0xFFFFFFFFl; Enc.encode Isa.Ebreak ] in
  Alcotest.(check bool) "illegal opcode" true
    (has_check "illegal-opcode" (Lint.lint bad));
  Alcotest.(check bool) "roundtrip check flags it too" true
    (has_check "illegal-opcode" (Lint.lint_roundtrip bad));
  (* jump far outside the text section *)
  let bad = image_of_words [ Enc.encode (Isa.Jal (0, 2048)); Enc.encode Isa.Ebreak ] in
  Alcotest.(check bool) "target bounds" true
    (has_check "target-bounds" (Lint.lint bad));
  (* last instruction is not a terminator *)
  let bad = image_of_words [ nop ] in
  Alcotest.(check bool) "fall through" true
    (has_check "fall-through" (Lint.lint bad));
  (* a trailing call falls through when the callee returns *)
  let bad = image_of_words [ nop; Enc.encode (Isa.Jal (1, -4)) ] in
  Alcotest.(check bool) "trailing call" true
    (has_check "fall-through" (Lint.lint bad));
  (* reading a temporary that nothing wrote *)
  let bad =
    image_of_words
      [ Enc.encode (Isa.Alu (Isa.Add, 10, 5, 0)); Enc.encode Isa.Ebreak ]
  in
  Alcotest.(check bool) "uninit temp read" true
    (has_check "uninit-read" (Lint.lint bad));
  (* sp written by something other than addi *)
  let bad =
    image_of_words
      [ Enc.encode (Isa.Alu (Isa.Add, 2, 10, 0)); Enc.encode Isa.Ebreak ]
  in
  Alcotest.(check bool) "sp discipline" true
    (has_check "sp-discipline" (Lint.lint bad));
  (* a clean halt-only image has nothing to say *)
  let good = image_of_words [ nop; Enc.encode Isa.Ebreak ] in
  Alcotest.(check (list string)) "clean image" [] (checks_of (Lint.lint good))

(* sp displacement that depends on the path taken *)
let test_lint_path_dependent_sp () =
  let enc = Enc.encode in
  (* f: beq a0, zero, +8 ; addi sp, sp, -16 ; ret *)
  let bad =
    image_of_words
      [ enc (Isa.Jal (1, 8));               (* _start: jal ra, f *)
        enc Isa.Ebreak;
        enc (Isa.Branch (Isa.Beq, 10, 0, 8));  (* f: skip the frame push *)
        enc (Isa.Alui (Isa.Addi, 2, 2, -16));
        enc (Isa.Jalr (0, 1, 0)) ]
  in
  let findings = Lint.lint bad in
  Alcotest.(check bool) "path-dependent sp flagged" true
    (has_check "stack-imbalance" findings)

(* ---------- compiled workloads stay clean at every level ---------- *)

let test_workloads_clean_all_levels () =
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun opt ->
            let image =
              (Straight_core.Compile.compile ~opt ~checked:true
                 Straight_core.Compile.Riscv w.Workloads.source)
                .Straight_core.Compile.image
            in
            match Lint.lint image with
            | [] -> ()
            | f :: _ ->
              Alcotest.failf "%s: %s" w.Workloads.name
                (Lint_report.finding_to_string f))
         [ Ssa_ir.Passes.O0; Ssa_ir.Passes.O1; Ssa_ir.Passes.O2 ])
    [ Workloads.fib ~n:10 ();
      Workloads.iota ~n:16 ();
      Workloads.sort ~n:16 ();
      Workloads.quicksort ~n:24 ();
      Workloads.pointer_chase () ]

let suite =
  [ ("fixtures accepted", `Quick, test_fixtures_accepted);
    ("fixtures rejected by intended check", `Quick, test_fixtures_rejected);
    ("synthetic broken images rejected", `Quick, test_lint_rejects_words);
    ("path-dependent sp rejected", `Quick, test_lint_path_dependent_sp);
    ("compiled workloads clean at O0/O1/O2", `Slow, test_workloads_clean_all_levels) ]

let () = Alcotest.run "riscv_lint" [ ("riscv_lint", suite) ]
