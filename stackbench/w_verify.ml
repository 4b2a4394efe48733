(* [verify]: the translation validator on the built-in workloads' images
   for straight-re+, straight-raw and riscv, both binary linters on the
   same images, and seeded mutation trials.  The validator does nearly
   all of this work and runs nowhere else.  It is kept apart from
   [compile] because per program it costs about 50x the compile path and
   would hide the compile layers.

   Set-up lowers and optimizes each workload, compiles the images the
   linters read, and generates the mutation trials' programs.  The
   workloads whose validation takes longest (dhrystone, coremark,
   quicksort, wasm_sieve) are left out to keep a pass near 3 s. *)

module Codegen = Straight_cc.Codegen
module Isa = Straight_isa.Isa

(* Mutation trials run on a fixed corpus of generated programs; the
   benchmark seed picks each trial's mutation.  Validation time depends
   on the program far more than on the mutated site, so the pass time
   does not swing with the seed. *)
let corpus = List.init 4 (fun i -> i + 1)

let workloads () =
  [ Workloads.fib (); Workloads.iota (); Workloads.sort ();
    Workloads.pointer_chase (); Workloads.wasm_crc32 (); Workloads.wasm_expr () ]

let config level = { Codegen.max_dist = Isa.max_dist; level }
let re = Layer.Straight (Codegen.Re_plus, Isa.max_dist)
let raw = Layer.Straight (Codegen.Raw, Isa.max_dist)

type named = {
  name : string;
  ir : Ssa_ir.Ir.program;    (* O2; the validator clones it *)
  images : (Layer.target * Assembler.Image.t) list;
}

type input = {
  named : named list;
  trials : (int * string) list;   (* mutation seed, program *)
}

let setup ~seed : input =
  let named =
    List.map
      (fun (w : Workloads.t) ->
         let ir = Layer.front w.Workloads.source in
         Layer.optimize Ssa_ir.Passes.O2 ir;
         { name = w.Workloads.name; ir;
           images =
             List.map (fun t -> (t, Layer.compile t w.Workloads.source))
               [ re; raw; Layer.Riscv ] })
      (workloads ())
  in
  let trials =
    List.mapi
      (fun i g ->
         ((abs seed * List.length corpus) + i, Fuzz.Gen.render (Fuzz.Gen.generate g)))
      corpus
  in
  { named; trials }

let prepare (_ : input) = ()

type outcome =
  | Findings of Lint_report.finding list   (* a correct image *)
  | Mutant of Check.mutant * string        (* verdict, description *)
  | No_site                                (* nothing to mutate *)

type result = { label : string; outcome : outcome }

let validations (ir : Ssa_ir.Ir.program) (findings : Lint_report.finding list) =
  let abstains =
    List.filter (fun f -> f.Lint_report.check = "tv-abstain") findings
    |> List.filter_map (fun f -> f.Lint_report.func)
    |> List.sort_uniq compare |> List.length
  in
  Counts.addi "tv.validations" (List.length ir.Ssa_ir.Ir.funcs);
  Counts.addi "tv.abstains" abstains;
  Counts.addi "tv.errors" (List.length (Lint_report.errors findings));
  findings

(* Console output and exit value on the ISS, or the fault. *)
let fingerprint img =
  match Layer.iss ~max_insns:2_000_000 re ~layout:[] img with
  | r -> Printf.sprintf "ok:%ld:%s" r.Layer.exit_value r.Layer.output
  | exception e -> "fault:" ^ Printexc.to_string e

let trial (g, src) : outcome =
  let fresh () =
    let p = Layer.front src in
    Layer.optimize Ssa_ir.Passes.O1 p;
    p
  in
  match Layer.mutation_trial ~config:(config Codegen.Re_plus) ~fresh ~seed:g with
  | None -> No_site
  | Some m ->
    Counts.addi "tv.mutants_tried" 1;
    let verdict =
      match m.Tv.Validate.m_caught, m.Tv.Validate.m_images with
      | true, _ -> Check.Caught
      | false, Some (original, mutated) ->
        Check.mutant ~caught:false ~original:(fingerprint original)
          ~mutated:(fingerprint mutated)
      | false, None -> Check.Missed
    in
    (match verdict with
     | Check.Caught -> Counts.addi "tv.mutants_caught" 1
     | Check.Equivalent -> Counts.addi "tv.mutants_skipped" 1
     | Check.Missed -> ());
    Mutant (verdict, m.Tv.Validate.m_desc)

let pass (input : input) (tally : Layer.tally) : result list =
  let tv =
    List.concat_map
      (fun n ->
         [ (n.name ^ "/tv/straight-re+",
            fun () -> validations n.ir (Layer.tv_straight ~config:(config Codegen.Re_plus) n.ir));
           (n.name ^ "/tv/straight-raw",
            fun () -> validations n.ir (Layer.tv_straight ~config:(config Codegen.Raw) n.ir));
           (n.name ^ "/tv/riscv",
            fun () -> validations n.ir (Layer.tv_riscv n.ir)) ])
      input.named
  in
  let lint =
    List.concat_map
      (fun n ->
         List.map
           (fun (t, img) ->
              ( Printf.sprintf "%s/lint/%s" n.name (Layer.target_label t),
                fun () ->
                  let fs = Layer.lint t img in
                  Counts.addi "lint.findings" (List.length fs);
                  fs ))
           n.images)
      input.named
  in
  let ops =
    List.map (fun (label, f) -> (label, fun () -> Findings (f ()))) (tv @ lint)
    @ List.map
      (fun ((g, _) as t) ->
         (Printf.sprintf "mutant-%d" g, fun () -> trial t))
      input.trials
  in
  List.mapi
    (fun op (label, f) ->
       Option.map
         (fun outcome -> { label; outcome })
         (Layer.attempt tally ~op ~label f))
    ops
  |> List.filter_map Fun.id

let check (_ : input) (cold : result list) (warm : result list) =
  List.concat_map
    (fun r ->
       let msgs =
         match r.outcome with
         | Findings fs -> Check.clean fs
         | Mutant (Check.Missed, desc) ->
           [ "validator accepted a mutant that changes behaviour: " ^ desc ]
         | Mutant ((Check.Caught | Check.Equivalent), _) | No_site -> []
       in
       List.map (fun m -> (r.label, m)) msgs)
    (cold @ warm)
