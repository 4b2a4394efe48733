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

let run ?max_insns ?collect_trace ?collect_dist ?on_retire image : Trace.run =
  let s = start ?max_insns ?collect_trace ?collect_dist ?on_retire image in
  run_session s;
  finish s

(* Wrong-path fetch decodes the static image once: applying
   [static_uop image] builds a table over the text words, and every
   fetch returns the shared entry for its pc.  Fetch stops at the
   program's stop instruction (HALT, EBREAK). *)
let static_uop (image : Image.t) : int -> Trace.uop option =
  let shape : int -> int32 -> Trace.uop option =
    match image.Image.isa with
    | Image.Straight ->
      fun pc w ->
        (match Straight_isa.Encoding.decode w with
         | None | Some Straight_isa.Isa.Halt -> None
         | Some insn -> Some (Straight_iss.uop_shape pc insn))
    | Image.Riscv ->
      fun pc w ->
        (match Riscv_isa.Encoding.decode w with
         | None | Some Riscv_isa.Isa.Ebreak -> None
         | Some insn -> Some (Riscv_iss.uop_shape pc insn))
  in
  let base = image.Image.text_base in
  let table = Array.mapi (fun i w -> shape (base + (4 * i)) w) image.Image.text in
  fun pc ->
    if pc >= base && pc < base + (4 * Array.length table) && pc land 3 = 0
    then table.((pc - base) asr 2)
    else None
