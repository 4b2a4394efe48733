(* The benchmark's calls into each layer of the stack, each inside a span
   named after the layer, with the layer's deterministic counts taken at
   the same boundary.  Spans and counts are recorded here, in the
   benchmark's own files; the program itself is not instrumented. *)

module Ir = Ssa_ir.Ir
module Codegen = Straight_cc.Codegen
module Asm = Assembler.Asm
module Image = Assembler.Image
module Diff = Fuzz.Diff
module Engine = Ooo_common.Engine

let max_insns = 50_000_000

(* ---------- operations ---------- *)

(* Operations a pass attempted and those that failed, with the reason
   for each failure.  A failed operation stays in the counts. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t ~label msg =
  t.failed <- t.failed + 1;
  t.errors <- Printf.sprintf "%s: %s" label msg :: t.errors

(* [attempt t ~op ~label f] runs one operation; an exception fails it. *)
let attempt t ~op ~label f =
  Span.set_op op;
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    fail t ~label (Diff.exn_message e);
    None

(* ---------- front ends and the SSA IR ---------- *)

let ir_insns (p : Ir.program) =
  List.fold_left
    (fun n (f : Ir.func) ->
       List.fold_left (fun n (b : Ir.block) -> n + 1 + List.length b.Ir.insts)
         n f.Ir.blocks)
    0 p.Ir.funcs

let front (src : string) : Ir.program =
  let p =
    if Wasm.Front.looks_like_wat src then
      Span.with_ "wasm" (fun () -> Wasm.Front.compile src)
    else Span.with_ "minic" (fun () -> Minic.Lower.compile src)
  in
  Counts.addi "ir.insns" (ir_insns p);
  p

let optimize ?(checked = false) level (p : Ir.program) =
  let before = ir_insns p in
  let pass =
    if checked then Ssa_ir.Passes.checked_at else Ssa_ir.Passes.optimize_at
  in
  Span.with_ "ssa_ir.passes" (fun () -> List.iter (pass level) p.Ir.funcs);
  Counts.addi "ssa_ir.insns_removed" (before - ir_insns p)

(* What a program run shows: console output, main's return value, and a
   digest of the final contents of every global in [layout] — the fuzz
   oracle's three observables.  Reading the globals back is the oracle's
   work ([fuzz.diff]), as it is in a fuzz campaign. *)
type observed = { output : string; exit_value : int32; globals : Digest.t }

let observe ~output ~exit_value ~(read : int -> int32)
    (layout : (string * int * int) list) : observed =
  Span.with_ "fuzz.diff" (fun () ->
      let b = Buffer.create 256 in
      List.iter
        (fun (sym, addr, words) ->
           Buffer.add_string b sym;
           Buffer.add_char b '\000';
           for i = 0 to words - 1 do
             Buffer.add_int32_le b (read (addr + (4 * i)))
           done)
        layout;
      { output; exit_value; globals = Digest.string (Buffer.contents b) })

(* [layout] defaults to every global of [p]. *)
let interp ?layout (p : Ir.program) : observed =
  let s =
    Span.with_ "ssa_ir.interp" (fun () ->
        Ssa_ir.Interp.run_snapshot ~max_steps:max_insns p)
  in
  observe ~output:s.Ssa_ir.Interp.output ~exit_value:s.Ssa_ir.Interp.ret
    ~read:s.Ssa_ir.Interp.read_word
    (Option.value layout ~default:(Diff.global_layout p))

(* ---------- back ends ---------- *)

let straight_cc ~max_dist ~level (p : Ir.program) =
  let items =
    Span.with_ "straight_cc" (fun () ->
        Codegen.compile ~config:{ Codegen.max_dist; level } p)
  in
  let st = Codegen.stats_of_items items in
  Counts.addi "straight_cc.insns" st.Codegen.total;
  Counts.addi "straight_cc.rmov" st.Codegen.rmov;
  Counts.addi "straight_cc.nop" st.Codegen.nop;
  items

let riscv_cc (p : Ir.program) =
  let items = Span.with_ "riscv_cc" (fun () -> Riscv_cc.Codegen.compile p) in
  Counts.addi "riscv_cc.insns"
    (List.length (List.filter (function Asm.Insn _ -> true | _ -> false) items));
  items

let image_words (img : Image.t) =
  Array.length img.Image.text + Array.length img.Image.data

let assembled img =
  Counts.addi "assembler.words" (image_words img);
  img

let assemble_straight items =
  assembled
    (Span.with_ "assembler" (fun () ->
         Asm.Straight.assemble ~entry:"_start" items))

let assemble_riscv items =
  assembled
    (Span.with_ "assembler" (fun () ->
         Asm.Riscv.assemble ~entry:"_start" items))

(* The fuzz campaign's targets and labels.  [Interp_opt] runs no
   machine code, so the calls below that take a machine reject it. *)
type target = Diff.target =
  | Interp_opt
  | Straight of Codegen.opt_level * int   (* level, max_dist *)
  | Riscv

let target_label = Diff.target_label

let not_a_machine fn = invalid_arg (fn ^ ": interp-opt is not a machine target")

(* Front end, O2 and a back end: the image the simulators run. *)
let compile (target : target) (src : string) : Image.t =
  let p = front src in
  optimize Ssa_ir.Passes.O2 p;
  match target with
  | Straight (level, max_dist) ->
    assemble_straight (straight_cc ~max_dist ~level p)
  | Riscv -> assemble_riscv (riscv_cc p)
  | Interp_opt -> not_a_machine "Layer.compile"

(* ---------- functional simulators ---------- *)

let iss_done ~words (r : Iss.Trace.run) =
  Counts.addi "iss.retired" r.Iss.Trace.retired;
  Counts.add "iss.alloc_words" words

(* [iss target img ~layout] runs an image to completion on its ISA's
   functional simulator, without trace collection, and reads back the
   globals in [layout]. *)
let iss ?(max_insns = max_insns) (target : target)
    ~(layout : (string * int * int) list) (img : Image.t) : observed =
  match target with
  | Straight _ ->
    let config =
      { Iss.Straight_iss.collect_trace = false; collect_dist = false;
        max_insns }
    in
    let (s, r), words =
      Span.with_ "iss" (fun () ->
          Probe.measure (fun () ->
              let s = Iss.Straight_iss.start ~config img in
              Iss.Straight_iss.run_session s;
              (s, Iss.Straight_iss.finish s)))
    in
    iss_done ~words r;
    observe ~output:r.Iss.Trace.output
      ~exit_value:(Iss.Straight_iss.exit_value s)
      ~read:(Iss.Memory.read (Iss.Straight_iss.session_memory s))
      layout
  | Riscv ->
    let config = { Iss.Riscv_iss.collect_trace = false; max_insns } in
    let o, words =
      Span.with_ "iss" (fun () ->
          Probe.measure (fun () -> Iss.Riscv_iss.run_outcome ~config img))
    in
    iss_done ~words o.Iss.Riscv_iss.run;
    observe ~output:o.Iss.Riscv_iss.run.Iss.Trace.output
      ~exit_value:(Iss.Riscv_iss.exit_value o)
      ~read:(Iss.Memory.read o.Iss.Riscv_iss.mem) layout
  | Interp_opt -> not_a_machine "Layer.iss"

(* ---------- the cycle-level engine ---------- *)

let cpi_buckets (s : Engine.stats) =
  Ooo_common.Stats.cpi_to_assoc s.Engine.cpi_stack

(* One exact simulation, as [Pipeline.run] of the target's pipeline
   library makes it, split at the layer boundary: [Pipeline.start] runs
   the ISS with full trace collection and stands the engine and its
   lockstep checker up at cycle 0 ([iss]); stepping the engine to
   completion and [Pipeline.finish] are the engine's work ([engine]).
   [label] names the configuration in the counts. *)
type exact = { output : string; retired : int; stats : Engine.stats }

let exact ~label (target : target) (params : Ooo_common.Params.t)
    (img : Image.t) : exact =
  let (engine, info, finish), words =
    Span.with_ "iss" (fun () ->
        Probe.measure (fun () ->
            match target with
            | Straight (_, max_dist) ->
              let module P = Ooo_straight.Pipeline in
              let s = P.start ~max_dist params img in
              ( s.P.engine, s.P.run_info,
                fun () -> let r = P.finish s in (r.P.stats, r.P.output) )
            | Riscv ->
              let module P = Ooo_riscv.Pipeline in
              let s = P.start params img in
              ( s.P.engine, s.P.run_info,
                fun () -> let r = P.finish s in (r.P.stats, r.P.output) )
            | Interp_opt -> not_a_machine "Layer.exact"))
  in
  iss_done ~words info;
  let (stats, output), words =
    Span.with_ "engine" (fun () ->
        Probe.measure (fun () ->
            while not (Engine.finished engine) do
              Engine.step engine
            done;
            finish ()))
  in
  Counts.add "engine.alloc_words" words;
  Counts.addi "engine.cycles" stats.Engine.cycles;
  Counts.addi "engine.committed" stats.Engine.committed;
  Counts.addi "engine.checked_commits" stats.Engine.commits_checked;
  List.iter (fun (b, c) -> Counts.addi ("engine.cpi." ^ b) c) (cpi_buckets stats);
  Counts.detail label
    ([ ("cycles", stats.Engine.cycles); ("committed", stats.Engine.committed);
       ("checked_commits", stats.Engine.commits_checked) ]
     @ cpi_buckets stats
     |> List.map (fun (k, v) -> (k, float_of_int v)));
  { output; retired = info.Iss.Trace.retired; stats }

(* ---------- verifiers ---------- *)

let tv_straight ~config p =
  Span.with_ "tv" (fun () -> Tv.Validate.validate_straight ~config p)

let tv_riscv p = Span.with_ "tv" (fun () -> Tv.Validate.validate_riscv p)

let mutation_trial ~config ~fresh ~seed =
  Span.with_ "tv" (fun () -> Tv.Validate.mutation_trial ~config ~fresh ~seed ())

let lint (target : target) img =
  Span.with_ "lint" (fun () ->
      match target with
      | Straight (_, max_dist) -> Straight_lint.Lint.lint ~max_dist img
      | Riscv -> Riscv_lint.Lint.lint img
      | Interp_opt -> not_a_machine "Layer.lint")
