(* Differential execution of one MiniC source across every consumer of
   the toolchain:

     reference   SSA interpreter on the unoptimized IR
     interp-opt  SSA interpreter after the optimization pipeline
     straight-*  straight_cc (Raw and RE+, several max_dist) -> assembler
                 -> STRAIGHT ISS
     riscv       riscv_cc -> assembler -> RISC-V ISS

   Three observables are compared against the reference: console (MMIO)
   output, the exit value ([main]'s return), and the final contents of
   every global data symbol (both back ends and the interpreter lay out
   globals identically from [Layout.data_base], so addresses agree). *)

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

(* Every optimized compile in a fuzzing run goes through the checked
   pipeline: the SSA is re-validated after each pass, so a middle-end bug
   surfaces as "pass X broke the IR" at the seed that triggers it instead
   of as a downstream divergence to triage. *)
let frontend src = Compile.frontend ~checked:true src

let max_insns = 10_000_000

let globals_of_mem (layout : (string * int * int) list) (mem : Iss.Memory.t) :
  (string * int32 array) list =
  List.map
    (fun (sym, addr, words) ->
       (sym, Array.init words (fun i -> Iss.Memory.read mem (addr + (4 * i)))))
    layout

(* Run one target; exceptions propagate to [check]'s per-target handler. *)
let run_target (src : string) (t : target) : exec =
  match t with
  | Interp_opt ->
    let p = frontend src in
    let s = Ssa_ir.Interp.run_snapshot ~max_steps:max_insns p in
    let layout = global_layout p in
    { output = s.Ssa_ir.Interp.output;
      exit_value = s.Ssa_ir.Interp.ret;
      globals =
        List.map
          (fun (sym, addr, words) ->
             (sym,
              Array.init words (fun i ->
                  s.Ssa_ir.Interp.read_word (addr + (4 * i)))))
          layout }
  | Straight (level, max_dist) ->
    let p = frontend src in
    let image =
      (Compile.backend (Compile.Straight { Codegen.max_dist; level }) p)
        .Compile.image
    in
    let session =
      Iss.Straight_iss.start
        ~config:{ Iss.Straight_iss.default_config with max_insns }
        image
    in
    Iss.Straight_iss.run_session session;
    let r = Iss.Straight_iss.finish session in
    { output = r.Iss.Trace.output;
      exit_value = Iss.Straight_iss.exit_value session;
      globals =
        globals_of_mem (global_layout p)
          (Iss.Straight_iss.session_memory session) }
  | Riscv ->
    let p = frontend src in
    let image = (Compile.backend Compile.Riscv p).Compile.image in
    let o =
      Iss.Riscv_iss.run_outcome
        ~config:{ Iss.Riscv_iss.default_config with max_insns }
        image
    in
    { output = o.Iss.Riscv_iss.run.Iss.Trace.output;
      exit_value = Iss.Riscv_iss.exit_value o;
      globals = globals_of_mem (global_layout p) o.Iss.Riscv_iss.mem }

let reference (src : string) : exec =
  let p = Compile.frontend ~opt:Ssa_ir.Passes.O0 src in
  let s = Ssa_ir.Interp.run_snapshot ~max_steps:max_insns p in
  let layout = global_layout p in
  { output = s.Ssa_ir.Interp.output;
    exit_value = s.Ssa_ir.Interp.ret;
    globals =
      List.map
        (fun (sym, addr, words) ->
           (sym,
            Array.init words (fun i ->
                s.Ssa_ir.Interp.read_word (addr + (4 * i)))))
        layout }

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

(* [check ?targets src] runs the source everywhere and compares the
   observables against the unoptimized-interpreter reference. *)
let check ?(targets = default_targets) (src : string) : outcome =
  match reference src with
  | exception e -> Crashed { target = "reference"; message = exn_message e }
  | ref_e ->
    let rec go n = function
      | [] -> Agree n
      | t :: rest ->
        let label = target_label t in
        (match run_target src t with
         | exception e -> Crashed { target = label; message = exn_message e }
         | e ->
           (match compare_execs ~label ref_e e with
            | [] -> go (n + 1) rest
            | divs -> Diverged divs))
    in
    go 1 targets

(* [check_seed ?targets seed] generates, renders and checks one random
   program. *)
let check_seed ?targets (seed : int) : Gen.prog * string * outcome =
  let prog = Gen.generate seed in
  let src = Gen.render prog in
  (prog, src, check ?targets src)

let pp_divergence fmt (d : divergence) =
  Format.fprintf fmt "%s: %s: expected %s, got %s" d.target d.field d.expected
    d.actual
