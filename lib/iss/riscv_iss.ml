(* Functional simulator for the RV32IM baseline.

   Organized as a stepwise session (start / step / run_session / finish),
   mirroring Straight_iss, so the sampling machinery can drive both ISSes
   through one shape: run at full speed, observe every retirement through
   [on_retire], stop at instruction boundaries. *)

module Isa = Riscv_isa.Isa
module Encoding = Riscv_isa.Encoding
module Layout = Assembler.Layout
module Image = Assembler.Image

let fail fmt = Diag.error ~context:[ ("iss", "riscv") ] Diag.Exec_error fmt

type config = { max_insns : int; collect_trace : bool }

let default_config = { max_insns = 50_000_000; collect_trace = false }

(* x0..x31 as OCaml ints carrying their sign-extended 32-bit value
   ([Isa.sext32]), so a retirement boxes nothing; the [int32] arrays of
   [checkpoint], [resume] and [outcome] are converted at the boundary. *)
type session = {
  code : Isa.resolved array;
  text_base : int;
  mem : Memory.t;
  regs : int array;
  mutable pc : int;
  mutable count : int;
  mutable halted : bool;
  config : config;
  mutable uops : Trace.uop list;
  on_retire : (int -> Trace.uop -> unit) option;
  shapes : Text.shapes Lazy.t;
}

(* The uop the instruction at [pc] retires as, given its dynamic
   outcomes: the memory address, whether a branch was taken, and the pc
   the run continues at (JALR's target). *)
let retired_uop pc (insn : Isa.resolved) ~mem_addr ~taken ~next : Trace.uop =
  let fu =
    match Isa.kind insn with
    | Isa.Kmul -> Trace.FU_mul
    | Isa.Kdiv -> Trace.FU_div
    | Isa.Kload -> Trace.FU_load
    | Isa.Kstore -> Trace.FU_store
    | Isa.Kbranch | Isa.Kjump -> Trace.FU_branch
    | Isa.Kalu | Isa.Khalt -> Trace.FU_alu
  in
  let ctrl =
    match insn with
    | Isa.Branch (_, _, _, off) -> Trace.Cond { taken; target = pc + off }
    | Isa.Jal (rd, off) ->
      Trace.Uncond { target = pc + off; is_call = rd = 1; is_ret = false }
    | Isa.Jalr (rd, rs1, _) ->
      Trace.Uncond { target = next; is_call = rd = 1; is_ret = rd = 0 && rs1 = 1 }
    | _ -> Trace.Not_ctrl
  in
  let dest = match Isa.dest insn with Some rd -> rd | None -> 0 in
  { Trace.pc;
    fu;
    srcs_dist = [||];
    srcs_reg = Array.of_list (List.filter (fun r -> r <> 0) (Isa.sources insn));
    dest_reg = dest;
    has_dest = dest <> 0;
    is_rmov = false;
    is_nop = false;
    is_spadd = false;
    mem_addr;
    ctrl }

let uop_shape pc insn = retired_uop pc insn ~mem_addr:0 ~taken:false ~next:(-1)

let is_stop = function Isa.Ebreak -> true | _ -> false

(* The retired uop of [insn], the text word [idx]: its shape, copied
   only to set a memory address or JALR's target. *)
let session_uop s idx (insn : Isa.resolved) ~mem_addr ~taken ~next =
  let shapes = Lazy.force s.shapes in
  let shape = shapes.Text.not_taken.(idx) in
  match insn, shape.Trace.ctrl with
  | (Isa.Lw _ | Isa.Sw _), _ -> { shape with Trace.mem_addr }
  | Isa.Jalr _, Trace.Uncond c ->
    { shape with Trace.ctrl = Trace.Uncond { c with target = next } }
  | _ -> if taken then shapes.Text.taken.(idx) else shape

(* The architectural state at an instruction boundary: the PC, x0-x31
   and the retired-instruction count (RV32's [instret] counter, which
   numbers the retirements [on_retire] sees and the budget counts). *)
type arch_state = {
  a_pc : int;
  a_regs : int32 array;
  a_instret : int;
}

let checkpoint (s : session) : arch_state =
  { a_pc = s.pc; a_regs = Array.map Int32.of_int s.regs; a_instret = s.count }

let resume ?(config = default_config) ?on_retire (image : Image.t)
    (mem : Memory.t) (st : arch_state) : session =
  let code =
    Text.decode Encoding.decode image ~illegal:(fun w pc ->
        fail "illegal instruction word 0x%lx at 0x%x" w pc)
  and text_base = image.Image.text_base in
  { code;
    text_base;
    mem;
    regs = Array.map Int32.to_int st.a_regs;
    pc = st.a_pc;
    count = st.a_instret;
    halted = false;
    config;
    uops = [];
    on_retire;
    shapes = Text.shapes retired_uop ~is_stop text_base code }

let start ?config ?on_retire (image : Image.t) : session =
  let mem = Memory.create () in
  Memory.load_image mem image;
  let regs = Array.make 32 0l in
  regs.(2) <- Int32.of_int Layout.stack_top;
  resume ?config ?on_retire image mem
    { a_pc = image.Image.entry; a_regs = regs; a_instret = 0 }

let set regs rd v = if rd <> 0 then regs.(rd) <- v

(* [exec s ~want] executes one instruction.  It returns the retired uop
   when [want], trace collection or the observer asks for one, and
   [Trace.placeholder] otherwise, so a plain run builds no uops. *)
let exec (s : session) ~want : Trace.uop =
  if s.count >= s.config.max_insns then
    Diag.error
      ~context:[ ("retired", string_of_int s.count);
                 ("max_insns", string_of_int s.config.max_insns);
                 ("pc", Printf.sprintf "0x%x" s.pc) ]
      Diag.Fuel_exhausted
      "instruction budget exceeded: %d instructions retired (max_insns=%d)"
      s.count s.config.max_insns;
  let idx = (s.pc - s.text_base) asr 2 in
  if idx < 0 || idx >= Array.length s.code then
    fail "PC out of text: 0x%x" s.pc;
  let insn = s.code.(idx) in
  let here = s.pc in
  let next = ref (here + 4) in
  let mem_addr = ref 0 in
  let taken = ref false in
  let regs = s.regs in
  (match insn with
   | Isa.Lui (rd, i) -> set regs rd (Int32.to_int (Int32.shift_left i 12))
   | Isa.Auipc (rd, i) ->
     set regs rd (Isa.sext32 (here + Int32.to_int (Int32.shift_left i 12)))
   | Isa.Jal (rd, off) ->
     set regs rd (Isa.sext32 (here + 4));
     next := here + off
   | Isa.Jalr (rd, rs1, imm) ->
     let target = (regs.(rs1) + imm) land 0xFFFFFFFE in
     set regs rd (Isa.sext32 (here + 4));
     next := target
   | Isa.Branch (cond, rs1, rs2, off) ->
     if Isa.eval_branch_int cond regs.(rs1) regs.(rs2) then begin
       taken := true;
       next := here + off
     end
   | Isa.Lw (rd, rs1, imm) ->
     let addr = Isa.u32 (regs.(rs1) + imm) in
     mem_addr := addr;
     set regs rd (Memory.read_int s.mem addr)
   | Isa.Sw (rs2, rs1, imm) ->
     let addr = Isa.u32 (regs.(rs1) + imm) in
     mem_addr := addr;
     Memory.write_int s.mem addr regs.(rs2)
   | Isa.Alui (op, rd, rs1, imm) ->
     set regs rd (Isa.eval_alu_int (Isa.alu_of_alui op) regs.(rs1) imm)
   | Isa.Alu (op, rd, rs1, rs2) ->
     set regs rd (Isa.eval_alu_int op regs.(rs1) regs.(rs2))
   | Isa.Ebreak -> s.halted <- true);
  let u =
    match s.on_retire with
    | None when not (want || s.config.collect_trace) -> Trace.placeholder
    | on_retire ->
      let u =
        session_uop s idx insn ~mem_addr:!mem_addr ~taken:!taken ~next:!next
      in
      if s.config.collect_trace then s.uops <- u :: s.uops;
      (match on_retire with Some f -> f s.count u | None -> ());
      u
  in
  s.count <- s.count + 1;
  s.pc <- !next;
  u

let step (s : session) : unit = ignore (exec s ~want:false)
let step_uop (s : session) : Trace.uop = exec s ~want:true

let run_session ?(until = max_int) (s : session) : unit =
  while (not s.halted) && s.count < until do
    step s
  done

let static_uop (s : session) = Text.static_uop s.text_base s.shapes

let session_memory (s : session) : Memory.t = s.mem
let retired (s : session) = s.count
let halted (s : session) = s.halted

let finish (s : session) : Trace.run =
  { Trace.output = Memory.output s.mem;
    retired = s.count;
    trace = Array.of_list (List.rev s.uops);
    dist_histogram = [||] }

(* Full outcome of a run: the trace plus the final architectural state,
   for differential comparison against the other executions of the same
   program (the fuzzer compares exit values and final memory). *)
type outcome = {
  run : Trace.run;
  mem : Memory.t;
  regs : int32 array;
}

let run_outcome ?(config = default_config) (image : Image.t) : outcome =
  let s = start ~config image in
  run_session s;
  { run = finish s; mem = s.mem; regs = Array.map Int32.of_int s.regs }

let run ?config (image : Image.t) : Trace.run = (run_outcome ?config image).run

(* Exit value of a completed run: main's return register a0. *)
let exit_value (o : outcome) : int32 = o.regs.(10)
