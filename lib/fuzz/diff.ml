(* Differential execution of one source across every consumer of the
   toolchain:

     reference   SSA interpreter on the unoptimized IR
     interp-opt  SSA interpreter after the optimization pipeline
     straight-*  straight_cc (Raw and RE+, several max_dist) -> assembler
                 -> STRAIGHT ISS
     riscv       riscv_cc -> assembler -> RISC-V ISS

   Three observables are compared against the reference: console (MMIO)
   output, the exit value ([main]'s return), and the final contents of
   every global data symbol (both back ends and the interpreter lay out
   globals identically from [Layout.data_base], so addresses agree).

   Every run reads one [build] of the source: the O0 reference, one
   checked optimized program, and per back-end configuration one clone
   of it compiled once.  The fuzz CLI's linters and translation
   validator judge those same images, so every checker sees the bytes
   the oracle executed. *)

module Ir = Ssa_ir.Ir
module Codegen = Straight_cc.Codegen
module Compile = Straight_core.Compile

type target =
  | Interp_opt
  | Straight of Codegen.opt_level * int   (* level, max_dist *)
  | Riscv

let target_label = function
  | Interp_opt -> "interp-opt"
  | Straight (Codegen.Raw, d) -> Printf.sprintf "straight-raw-%d" d
  | Straight (Codegen.Re_plus, d) -> Printf.sprintf "straight-re+-%d" d
  | Riscv -> "riscv"

let default_targets =
  [ Interp_opt;
    Straight (Codegen.Re_plus, Straight_isa.Isa.max_dist);
    Straight (Codegen.Raw, Straight_isa.Isa.max_dist);
    Straight (Codegen.Re_plus, 31);
    Straight (Codegen.Raw, 31);
    Riscv ]

(* One execution's observables. *)
type exec = {
  output : string;
  exit_value : int32;
  globals : (string * int32 array) list;   (* symbol -> final words *)
}

type divergence = {
  target : string;
  field : string;        (* "output" | "exit" | "mem <sym>[i]" *)
  expected : string;
  actual : string;
}

type outcome =
  | Agree of int                           (* number of executions compared *)
  | Diverged of divergence list
  | Crashed of { target : string; message : string }

(* Global data symbols with their byte addresses and word counts, laid
   out exactly like interp and both back ends lay them out. *)
let global_layout (p : Ir.program) : (string * int * int) list =
  let cursor = ref Assembler.Layout.data_base in
  List.map
    (fun (d : Ir.data_def) ->
       let addr = !cursor in
       let bytes = (4 * List.length d.Ir.words) + d.Ir.extra_bytes in
       cursor := !cursor + bytes;
       (d.Ir.sym, addr, bytes / 4))
    p.Ir.data

let max_insns = 10_000_000

(* The code generator a machine target names. *)
let backend = function
  | Straight (level, max_dist) -> Compile.Straight { Codegen.max_dist; level }
  | Riscv -> Compile.Riscv
  | Interp_opt -> invalid_arg "Diff.backend: interp-opt runs no machine code"

(* One back-end configuration's compile: the clone as the back end left
   it (what its image is validated against) and the linked image. *)
type compiled = { ir : Ir.program; image : Assembler.Image.t }

(* Each part is built on first use; forcing one whose build raised
   raises the same exception again. *)
type build = {
  reference : Ir.program Lazy.t;   (* O0 *)
  optimized : Ir.program Lazy.t;   (* checked; never compiled itself *)
  images : (target * compiled Lazy.t) list;   (* per machine target *)
}

(* [build ?opt src]: every optimized compile goes through the checked
   pipeline, so a middle-end bug surfaces as "pass X broke the IR" at
   the seed that triggers it — for the oracle, the linters and TV alike
   — instead of as a downstream divergence to triage.  [opt] (default
   O2) is the optimized program's level; the reference is always O0. *)
let build ?opt (src : string) : build =
  let optimized = lazy (Compile.frontend ?opt ~checked:true src) in
  let image t =
    lazy
      (let ir = Ir.clone (Lazy.force optimized) in
       { ir; image = (Compile.backend (backend t) ir).Compile.image })
  in
  { reference = lazy (Compile.frontend ~opt:Ssa_ir.Passes.O0 src);
    optimized;
    images =
      List.filter_map
        (fun t -> if t = Interp_opt then None else Some (t, image t))
        default_targets }

(* [compiled b t]: machine target [t]'s clone and image. *)
let compiled (b : build) (t : target) : compiled =
  Lazy.force (List.assoc t b.images)

(* The back-end configurations both linters and the translation
   validator judge, by report label: three of the oracle's images. *)
let verified =
  [ ("straight-re+", Straight (Codegen.Re_plus, Straight_isa.Isa.max_dist));
    ("straight-raw", Straight (Codegen.Raw, Straight_isa.Isa.max_dist));
    ("riscv", Riscv) ]

(* The final words of [p]'s globals, read through [read]. *)
let globals_of (p : Ir.program) (read : int -> int32) =
  List.map
    (fun (sym, addr, words) ->
       (sym, Array.init words (fun i -> read (addr + (4 * i)))))
    (global_layout p)

let interp (p : Ir.program) : exec =
  let s = Ssa_ir.Interp.run_snapshot ~max_steps:max_insns p in
  { output = s.Ssa_ir.Interp.output;
    exit_value = s.Ssa_ir.Interp.ret;
    globals = globals_of p s.Ssa_ir.Interp.read_word }

(* Run one target; exceptions propagate to [check]'s per-target handler. *)
let run_target (b : build) (t : target) : exec =
  match t with
  | Interp_opt -> interp (Lazy.force b.optimized)
  | Straight _ | Riscv ->
    let c = compiled b t in
    let s = Iss.Machine.start ~max_insns c.image in
    Iss.Machine.run_session s;
    { output = (Iss.Machine.finish s).Iss.Trace.output;
      exit_value = Iss.Machine.exit_value s;
      globals = globals_of c.ir (Iss.Memory.read (Iss.Machine.memory s)) }

let compare_execs ~(label : string) (ref_e : exec) (e : exec) : divergence list =
  let divs = ref [] in
  let add field expected actual =
    divs := { target = label; field; expected; actual } :: !divs
  in
  if ref_e.output <> e.output then
    add "output" (String.escaped ref_e.output) (String.escaped e.output);
  if ref_e.exit_value <> e.exit_value then
    add "exit"
      (Int32.to_string ref_e.exit_value)
      (Int32.to_string e.exit_value);
  List.iter
    (fun (sym, expected) ->
       match List.assoc_opt sym e.globals with
       | None -> add (Printf.sprintf "mem %s" sym) "present" "missing"
       | Some actual ->
         Array.iteri
           (fun i w ->
              if i < Array.length actual && actual.(i) <> w then
                add
                  (Printf.sprintf "mem %s[%d]" sym i)
                  (Int32.to_string w)
                  (Int32.to_string actual.(i)))
           expected)
    ref_e.globals;
  List.rev !divs

let exn_message (e : exn) : string =
  match e with
  | Diag.Error d -> Diag.to_string d
  | e -> Printexc.to_string e

(* [check_build b] runs the build on every default target and compares
   the observables against the unoptimized-interpreter reference. *)
let check_build (b : build) : outcome =
  match interp (Lazy.force b.reference) with
  | exception e -> Crashed { target = "reference"; message = exn_message e }
  | ref_e ->
    let rec go n = function
      | [] -> Agree n
      | t :: rest ->
        let label = target_label t in
        (match run_target b t with
         | exception e -> Crashed { target = label; message = exn_message e }
         | e ->
           (match compare_execs ~label ref_e e with
            | [] -> go (n + 1) rest
            | divs -> Diverged divs))
    in
    go 1 default_targets

let check (src : string) : outcome = check_build (build src)

(* [check_seed seed] generates, renders and checks one random program. *)
let check_seed (seed : int) : Gen.prog * string * outcome =
  let prog = Gen.generate seed in
  let src = Gen.render prog in
  (prog, src, check src)

let pp_divergence fmt (d : divergence) =
  Format.fprintf fmt "%s: %s: expected %s, got %s" d.target d.field d.expected
    d.actual
