(* The functional simulator an image names.  See machine.mli. *)

module Image = Assembler.Image

type session =
  | Straight of Straight_iss.session
  | Riscv of Riscv_iss.session

let start ?(max_insns = 50_000_000) ?(collect_trace = false)
    ?(collect_dist = false) ?on_retire (image : Image.t) : session =
  match image.Image.isa with
  | Image.Straight ->
    Straight
      (Straight_iss.start
         ~config:{ Straight_iss.max_insns; collect_trace; collect_dist }
         ?on_retire image)
  | Image.Riscv ->
    Riscv
      (Riscv_iss.start ~config:{ Riscv_iss.max_insns; collect_trace }
         ?on_retire image)

let step_uop = function
  | Straight s -> Straight_iss.step_uop s
  | Riscv s -> Riscv_iss.step_uop s

let run_session ?until = function
  | Straight s -> Straight_iss.run_session ?until s
  | Riscv s -> Riscv_iss.run_session ?until s

let finish = function
  | Straight s -> Straight_iss.finish s
  | Riscv s -> Riscv_iss.finish s

let retired = function
  | Straight s -> Straight_iss.retired s
  | Riscv s -> Riscv_iss.retired s

let halted = function
  | Straight s -> Straight_iss.halted s
  | Riscv s -> Riscv_iss.halted s

let memory = function
  | Straight s -> Straight_iss.session_memory s
  | Riscv s -> Riscv_iss.session_memory s

(* RV32IM returns [main]'s value in a0 *)
let exit_value = function
  | Straight s -> Straight_iss.exit_value s
  | Riscv s -> (Riscv_iss.checkpoint s).Riscv_iss.a_regs.(10)

(* ---------- the ISS state ---------- *)

(* The ISA tag, the PC, the retired count (STRAIGHT's RP, RV32IM's
   instret), the register words (STRAIGHT: SP and the last max_dist
   values; RV32IM: x0-x31), then the memory. *)
let save b s =
  if halted s then invalid_arg "Machine.save: the program has stopped";
  let tag, pc, count, words =
    match s with
    | Straight s ->
      let st = Straight_iss.checkpoint s in
      ( 0, st.Straight_iss.a_pc, st.Straight_iss.a_rp,
        Array.append [| st.Straight_iss.a_sp |] st.Straight_iss.a_window )
    | Riscv s ->
      let st = Riscv_iss.checkpoint s in
      (1, st.Riscv_iss.a_pc, st.Riscv_iss.a_instret, st.Riscv_iss.a_regs)
  in
  List.iter (Bin.w_int b) [ tag; pc; count ];
  Array.iter (Bin.w_int32 b) words;
  Memory.save b (memory s)

let isa_name = function Image.Straight -> "STRAIGHT" | Image.Riscv -> "RV32IM"

let load ?(max_insns = 50_000_000) ?on_retire (image : Image.t) r : session =
  let isa =
    match Bin.r_int r with
    | 0 -> Image.Straight
    | 1 -> Image.Riscv
    | n -> Bin.corrupt "bad ISA tag %d" n
  in
  if isa <> image.Image.isa then
    Bin.corrupt "ISS state saved from %s code, the image is %s"
      (isa_name isa) (isa_name image.Image.isa);
  let pc = Bin.r_int r in
  if pc land 3 <> 0 || pc < image.Image.text_base || pc >= Image.text_end image
  then Bin.corrupt "ISS state's pc 0x%x is outside the text" pc;
  let count = Bin.r_int r in
  let words n = Array.init n (fun _ -> Bin.r_int32 r) in
  match isa with
  | Image.Straight ->
    let a_sp = Bin.r_int32 r in
    let a_window = words Straight_isa.Isa.max_dist in
    Straight
      (Straight_iss.resume
         ~config:
           { Straight_iss.max_insns; collect_trace = false;
             collect_dist = false }
         ?on_retire image (Memory.load r)
         { Straight_iss.a_pc = pc; a_sp; a_rp = count; a_window })
  | Image.Riscv ->
    let a_regs = words 32 in
    Riscv
      (Riscv_iss.resume ~config:{ Riscv_iss.max_insns; collect_trace = false }
         ?on_retire image (Memory.load r)
         { Riscv_iss.a_pc = pc; a_regs; a_instret = count })

let run ?max_insns ?collect_trace ?collect_dist ?on_retire image : Trace.run =
  let s = start ?max_insns ?collect_trace ?collect_dist ?on_retire image in
  run_session s;
  finish s

let static_uop = function
  | Straight s -> Straight_iss.static_uop s
  | Riscv s -> Riscv_iss.static_uop s
