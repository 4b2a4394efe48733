(* Command-line compiler driver: MiniC or WAT -> STRAIGHT or RV32IM
   assembly / execution / static verification.  See also examples/ for
   API-level usage.  The WASM front-end is selected by -wasm, a .wat
   file extension, or content sniffing (WAT starts with '(').

   Failures are reported as structured diagnostics with a distinct exit
   code per failure class (see Diag.exit_code): 2 usage, 3 compile
   errors, 4 execution/memory faults, 5 fuel exhaustion, 8 lint
   findings. *)

module Diagnostics = Straight_core.Diagnostics
module Compile = Straight_core.Compile

let main () =
  let usage =
    "straightc [-target straight|riscv] [-O0|-O1|-O2] [-raw] [-maxdist N] \
     [-wasm] [-run] [-asm] [-lint] [-lint-json FILE] [-tv] [-tv-json FILE] \
     FILE"
  in
  let target = ref "straight" in
  let opt = ref Ssa_ir.Passes.O2 in
  let raw = ref false in
  let maxdist = ref Straight_isa.Isa.max_dist in
  let run = ref false in
  let show_asm = ref false in
  let dump = ref false in
  let lint = ref false in
  let lint_json = ref "" in
  let tv = ref false in
  let tv_json = ref "" in
  let wasm = ref false in
  let file = ref "" in
  let spec =
    [ ("-target", Arg.Set_string target, "straight|riscv");
      ("-O0", Arg.Unit (fun () -> opt := Ssa_ir.Passes.O0),
       " disable the SSA optimization pipeline");
      ("-O1", Arg.Unit (fun () -> opt := Ssa_ir.Passes.O1),
       " folding + DCE + CFG cleanup");
      ("-O2", Arg.Unit (fun () -> opt := Ssa_ir.Passes.O2),
       " additionally CSE and LICM (default)");
      ("-raw", Arg.Set raw, "disable RE+ redundancy elimination");
      ("-maxdist", Arg.Set_int maxdist, "maximum source distance");
      ("-wasm", Arg.Set wasm,
       " treat the input as WASM text format (implied by a .wat file)");
      ("-run", Arg.Set run, "execute on the functional simulator");
      ("-asm", Arg.Set show_asm, "print generated assembly");
      ("-dump", Arg.Set dump, "disassemble the linked image");
      ("-lint", Arg.Set lint,
       " run the static binary verifier on the linked image");
      ("-lint-json", Arg.Set_string lint_json,
       "FILE  write the lint report as JSON (implies -lint)");
      ("-tv", Arg.Set tv,
       " validate the translation: IR vs linked image, per function");
      ("-tv-json", Arg.Set_string tv_json,
       "FILE  write the TV report as JSON (implies -tv)") ]
  in
  Arg.parse spec (fun f -> file := f) usage;
  if !file = "" then begin prerr_endline usage; exit 2 end;
  if !lint_json <> "" then lint := true;
  if !tv_json <> "" then tv := true;
  let src = In_channel.with_open_text !file In_channel.input_all in
  let prog =
    if !wasm || Wasm.Front.is_wat_filename !file then Wasm.Front.compile src
    else Wasm.Front.compile_any src
  in
  (* the driver always takes the checked pipeline: a middle-end bug is
     reported as "pass X broke the IR", not as corrupt output *)
  List.iter (Ssa_ir.Passes.checked_at !opt) prog.Ssa_ir.Ir.funcs;
  (* [finish_lint label findings] prints the findings, optionally writes
     the JSON report, and exits 8 if any is an error. *)
  let finish_lint (label : string) (findings : Lint_report.finding list) =
    List.iter
      (fun f -> Printf.printf "%s\n" (Lint_report.finding_to_string f))
      findings;
    if !lint_json <> "" then
      Out_channel.with_open_text !lint_json (fun oc ->
          output_string oc
            (Json.to_string (Lint_report.report_json [ (label, findings) ])));
    match Lint_report.errors findings with
    | [] -> Printf.printf "%s: lint clean\n" label
    | errs ->
      Printf.eprintf "%s: %d lint error%s\n" label (List.length errs)
        (if List.length errs = 1 then "" else "s");
      exit (Diagnostics.exit_code Diagnostics.Lint_finding)
  in
  (* [finish_tv] mirrors [finish_lint] for the translation validator:
     abstentions are Info findings and stay visible, only Errors fail. *)
  let finish_tv (label : string) (findings : Lint_report.finding list) =
    List.iter
      (fun f -> Printf.printf "%s\n" (Lint_report.finding_to_string f))
      findings;
    if !tv_json <> "" then
      Out_channel.with_open_text !tv_json (fun oc ->
          output_string oc
            (Json.to_string
               (Lint_report.report_json ~schema:"straight-tv/1"
                  [ (label, findings) ])));
    match Lint_report.errors findings with
    | [] ->
      let abstained =
        List.length
          (List.filter
             (fun f -> f.Lint_report.check = "tv-abstain")
             findings)
      in
      Printf.printf "%s: translation validated%s\n" label
        (if abstained = 0 then ""
         else
           Printf.sprintf " (%d function%s abstained)" abstained
             (if abstained = 1 then "" else "s"))
    | errs ->
      Printf.eprintf "%s: %d translation-validation error%s\n" label
        (List.length errs)
        (if List.length errs = 1 then "" else "s");
      exit (Diagnostics.exit_code Diagnostics.Lint_finding)
  in
  let olabel =
    match !opt with
    | Ssa_ir.Passes.O0 -> "O0"
    | Ssa_ir.Passes.O1 -> "O1"
    | Ssa_ir.Passes.O2 -> "O2"
  in
  let compile_target =
    match !target with
    | "straight" ->
      let level =
        if !raw then Straight_cc.Codegen.Raw else Straight_cc.Codegen.Re_plus
      in
      Compile.Straight { Straight_cc.Codegen.max_dist = !maxdist; level }
    | "riscv" -> Compile.Riscv
    | t -> Printf.eprintf "unknown target %s\n" t; exit 2
  in
  let label = Printf.sprintf "%s:%s:%s" !file !target olabel in
  (* TV first: the back end mutates the IR in place, and the validator
     wants to clone-and-compile the pristine program itself. *)
  if !tv then
    finish_tv label
      (match compile_target with
       | Compile.Straight config -> Tv.Validate.validate_straight ~config prog
       | Compile.Riscv -> Tv.Validate.validate_riscv prog);
  let out = Compile.backend compile_target prog in
  if !show_asm then print_string (Lazy.force out.Compile.listing);
  let disassemble, execute, verify =
    match compile_target with
    | Compile.Straight _ ->
      ( Assembler.Asm.disassemble_straight,
        (fun image -> Iss.Straight_iss.run image),
        Straight_lint.Lint.lint ~max_dist:!maxdist )
    | Compile.Riscv ->
      ( Assembler.Asm.disassemble_riscv,
        (fun image -> Iss.Riscv_iss.run image),
        fun image -> Riscv_lint.Lint.lint image )
  in
  if !dump then print_string (disassemble out.Compile.image);
  if !run then begin
    let r = execute out.Compile.image in
    print_string r.Iss.Trace.output;
    Printf.printf "[retired %d instructions]\n" r.Iss.Trace.retired
  end;
  if !lint then finish_lint label (verify out.Compile.image)

let () =
  try main () with
  | e ->
    (match Diagnostics.of_exn e with
     | None -> raise e
     | Some d ->
       Printf.eprintf "straightc: %s\n" (Diagnostics.to_string d);
       exit (Diagnostics.exit_code d.Diagnostics.code))
