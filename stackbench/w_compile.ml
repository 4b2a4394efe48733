(* [compile]: seeded MiniC and WAT programs from the fuzz generators,
   each taking the fuzz campaign's differential path once per target of
   the campaign ([Diff.default_targets]) — front end, O2 with per-pass
   validation, then the optimized interpreter, straight_cc at RE+ and
   RAW with max distance 1023 and 31, or riscv_cc, followed by the
   assembler and the ISA's ISS.  The
   front ends, passes and code generators do most of this work; the
   engine, the sampler and the validator are absent.  The ISS runs
   short programs without trace collection.

   Set-up generates the programs and runs the reference: the
   interpreter on each program's unoptimized IR. *)

module Diff = Fuzz.Diff

let minic_programs = 150
let wat_programs = 100

type program = { name : string; src : string; reference : Layer.observed }
type input = program list

(* Generator seeds of benchmark seed [s]: a block of consecutive seeds
   per generator, disjoint across benchmark seeds. *)
let gen_seeds ~seed n = List.init n (fun i -> (abs seed * n) + i)

let sources ~seed =
  List.map
    (fun g -> (Printf.sprintf "minic-%d" g, Fuzz.Gen.render (Fuzz.Gen.generate g)))
    (gen_seeds ~seed minic_programs)
  @ List.map
    (fun g ->
       (Printf.sprintf "wat-%d" g, Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate g)))
    (gen_seeds ~seed wat_programs)

let setup ~seed : input =
  List.map
    (fun (name, src) -> { name; src; reference = Layer.interp (Layer.front src) })
    (sources ~seed)

let prepare (_ : input) = ()

let run_target (src : string) (t : Layer.target) : Layer.observed =
  let p = Layer.front src in
  Layer.optimize ~checked:true Ssa_ir.Passes.O2 p;
  match t with
  | Layer.Interp_opt -> Layer.interp p
  | Layer.Straight (level, max_dist) ->
    let img = Layer.assemble_straight (Layer.straight_cc ~max_dist ~level p) in
    Layer.iss t ~layout:(Diff.global_layout p) img
  | Layer.Riscv ->
    let img = Layer.assemble_riscv (Layer.riscv_cc p) in
    Layer.iss t ~layout:(Diff.global_layout p) img

type result = {
  label : string;
  expected : Layer.observed;
  actual : Layer.observed;
}

let pass (input : input) (tally : Layer.tally) : result list =
  List.concat_map
    (fun (prog : program) -> List.map (fun t -> (prog, t)) Diff.default_targets)
    input
  |> List.mapi (fun op (prog, t) ->
      let label = Printf.sprintf "%s/%s" prog.name (Diff.target_label t) in
      Layer.attempt tally ~op ~label (fun () ->
          { label; expected = prog.reference; actual = run_target prog.src t }))
  |> List.filter_map Fun.id

let check (_ : input) (cold : result list) (warm : result list) =
  List.concat_map
    (fun r ->
       List.map
         (fun m -> (r.label, m))
         (Check.observed ~expected:r.expected r.actual))
    (cold @ warm)
