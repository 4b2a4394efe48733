(* Output identity of the middle end and both back ends, pinned by
   digest: for MiniC generator seeds 0-299, WAT generator seeds 0-199 and
   every built-in workload, the MD5 of the O1 and O2 IR text
   ([Ir.func_to_string] of every function) and of the linked image words
   of each machine target of [Fuzz.Diff.default_targets], compiled from
   the O2 program.  The checked pipeline must give the same IR as the
   unchecked one at both levels.

   test/ir_golden.txt holds one line per program.  A change that is meant
   to move compiler output re-records it, with the reason stated beside
   the change: on a mismatch (or a missing file) the test writes the
   fresh digests to ir_golden.actual in its working directory
   (_build/default/test under dune test); copy that file over
   test/ir_golden.txt. *)

module Ir = Ssa_ir.Ir
module Passes = Ssa_ir.Passes
module Diff = Fuzz.Diff
module Compile = Straight_core.Compile

let golden_path =
  if Sys.file_exists "ir_golden.txt" then "ir_golden.txt"
  else "test/ir_golden.txt"

let programs () : (string * string) list =
  List.init 300 (fun s ->
      (Printf.sprintf "minic-%d" s, Fuzz.Gen.render (Fuzz.Gen.generate s)))
  @ List.init 200 (fun s ->
      (Printf.sprintf "wat-%d" s, Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate s)))
  @ List.map
    (fun (w : Workloads.t) -> ("workload-" ^ w.Workloads.name, w.Workloads.source))
    [ Workloads.dhrystone (); Workloads.coremark (); Workloads.fib ();
      Workloads.iota (); Workloads.sort (); Workloads.quicksort ();
      Workloads.pointer_chase (); Workloads.stream (); Workloads.wasm_sieve ();
      Workloads.wasm_crc32 (); Workloads.wasm_expr () ]

let ir_text (p : Ir.program) =
  String.concat "" (List.map Ir.func_to_string p.Ir.funcs)

let image_digest (img : Assembler.Image.t) =
  let b = Buffer.create 4096 in
  Array.iter (Buffer.add_int32_le b) img.Assembler.Image.text;
  Buffer.add_string b "/data/";
  Array.iter (Buffer.add_int32_le b) img.Assembler.Image.data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let machine_targets =
  List.filter (fun t -> t <> Diff.Interp_opt) Diff.default_targets

(* One program's golden line: name, O1 and O2 IR digests, then one image
   digest per machine target. *)
let line (name, src) =
  let lowered = Wasm.Front.compile_any src in
  let at level =
    let checked = Ir.clone lowered and plain = Ir.clone lowered in
    List.iter (Passes.checked_at level) checked.Ir.funcs;
    List.iter (Passes.optimize_at level) plain.Ir.funcs;
    let text = ir_text checked in
    if text <> ir_text plain then
      Alcotest.failf "%s: checked_at and optimize_at disagree at %s" name
        (Passes.opt_name level);
    (checked, Digest.to_hex (Digest.string text))
  in
  let _, o1 = at Passes.O1 in
  let o2p, o2 = at Passes.O2 in
  let images =
    List.map
      (fun t ->
         image_digest (Compile.backend (Diff.backend t) (Ir.clone o2p)).Compile.image)
      machine_targets
  in
  String.concat " " (name :: o1 :: o2 :: images)

let header =
  String.concat " "
    ("# program O1 O2" :: List.map Diff.target_label machine_targets)

let test_golden () =
  let fresh = header :: List.map line (programs ()) in
  let recorded =
    try In_channel.with_open_text golden_path In_channel.input_lines
    with Sys_error _ -> []
  in
  if fresh <> recorded then begin
    Out_channel.with_open_text "ir_golden.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) fresh);
    let first_diff =
      let rec go = function
        | f :: fs, r :: rs -> if f = r then go (fs, rs) else Some (f, r)
        | f :: _, [] -> Some (f, "<missing>")
        | [], r :: _ -> Some ("<missing>", r)
        | [], [] -> None
      in
      go (fresh, recorded)
    in
    match first_diff with
    | Some (f, r) ->
      Alcotest.failf
        "compiler output moved (fresh digests in %s/ir_golden.actual)\n\
        \  got:      %s\n  recorded: %s"
        (Sys.getcwd ()) f r
    | None -> ()
  end

let () =
  Alcotest.run "ir_golden"
    [ ("identity",
       [ ("O1/O2 IR and every back end's image match the golden", `Slow,
          test_golden) ]) ]
