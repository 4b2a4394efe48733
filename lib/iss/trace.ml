(* Normalized dynamic-instruction records.

   The functional simulators retire instructions in program order and emit
   one [uop] per retired instruction.  The cycle-accurate models replay this
   correct-path trace (oracle outcomes for branches and memory addresses)
   while fetching wrong-path instructions from the static image — see
   DESIGN.md "Substitutions" for the wrong-path modelling note. *)

type fu_class =
  | FU_alu          (* 1-cycle integer op (incl. RMOV and NOP slots) *)
  | FU_mul
  | FU_div
  | FU_branch       (* conditional branch / jump resolution unit *)
  | FU_load
  | FU_store

type ctrl =
  | Not_ctrl
  | Cond of { taken : bool; target : int }   (* target = taken destination *)
  | Uncond of { target : int; is_call : bool; is_ret : bool }

type uop = {
  pc : int;
  fu : fu_class;
  (* STRAIGHT dependence representation: source distances (0 = zero reg,
     i.e. no dependence).  Empty for RISC-V traces. *)
  srcs_dist : int array;
  (* RISC-V dependence representation: source logical registers (x0 = no
     dependence) and destination (0 = none).  Empty/0 for STRAIGHT traces. *)
  srcs_reg : int array;
  dest_reg : int;
  has_dest : bool;        (* STRAIGHT: always true; RISC-V: rd <> x0 *)
  is_rmov : bool;         (* instruction-mix bucket of Fig. 15 *)
  is_nop : bool;
  is_spadd : bool;        (* SPADD: serialized in-order at decode (III-B) *)
  mem_addr : int;         (* byte address for load/store; 0 otherwise *)
  ctrl : ctrl;
}

let placeholder =
  { pc = -1; fu = FU_alu; srcs_dist = [||]; srcs_reg = [||]; dest_reg = 0;
    has_dest = false; is_rmov = false; is_nop = false; is_spadd = false;
    mem_addr = 0; ctrl = Not_ctrl }

let kind_label u =
  match u.fu with
  | FU_load -> "LD"
  | FU_store -> "ST"
  | FU_branch -> "Jump+Branch"
  | FU_mul | FU_div -> "ALU"
  | FU_alu -> if u.is_rmov then "RMOV" else if u.is_nop then "NOP" else "ALU"

(* Canonical fingerprint of a retirement stream (see trace.mli): each
   uop's fields as fixed-width words, each word folded into two 63-bit
   multiply-xorshift lanes.  For a fixed word a step is a bijection of
   its lane, so changing any one word of the stream changes both lanes,
   whatever follows. *)
type digest_state = {
  mutable lane_a : int;
  mutable lane_b : int;
  mutable uops : int;
}

let digest_version = "straight-trace-digest/3"

(* odd multipliers, so each step is invertible modulo 2^63 *)
let mul_a = 0x1f3d_5b79_7a4c_2e65
let mul_b = 0x2c6f_e96e_e78b_6955

let fold st w =
  let a = (st.lane_a lxor w) * mul_a in
  st.lane_a <- a lxor (a lsr 32);
  let b = (st.lane_b + w) * mul_b in
  st.lane_b <- b lxor (b lsr 29)

let digest_init () =
  let st = { lane_a = 0; lane_b = 0; uops = 0 } in
  String.iter (fun c -> fold st (Char.code c)) digest_version;
  st

let fu_code = function
  | FU_alu -> 0 | FU_mul -> 1 | FU_div -> 2 | FU_branch -> 3
  | FU_load -> 4 | FU_store -> 5

let bit b k = if b then 1 lsl k else 0

(* bits 0-2 fu, 3-6 flags, 7-8 ctrl variant, 9-11 taken/is_call/is_ret,
   16-39 the distance count, 40- the register count *)
let header u =
  let ctrl =
    match u.ctrl with
    | Not_ctrl -> 0
    | Cond { taken; _ } -> 1 lor bit taken 2
    | Uncond { is_call; is_ret; _ } -> 2 lor bit is_call 3 lor bit is_ret 4
  in
  fu_code u.fu lor bit u.has_dest 3 lor bit u.is_rmov 4 lor bit u.is_nop 5
  lor bit u.is_spadd 6 lor (ctrl lsl 7)
  lor (Array.length u.srcs_dist lsl 16)
  lor (Array.length u.srcs_reg lsl 40)

let digest_add st u =
  fold st (header u);
  fold st u.pc;
  fold st u.dest_reg;
  fold st u.mem_addr;
  fold st
    (match u.ctrl with
     | Not_ctrl -> 0
     | Cond { target; _ } | Uncond { target; _ } -> target);
  for i = 0 to Array.length u.srcs_dist - 1 do
    fold st (Array.unsafe_get u.srcs_dist i)
  done;
  for i = 0 to Array.length u.srcs_reg - 1 do
    fold st (Array.unsafe_get u.srcs_reg i)
  done;
  st.uops <- st.uops + 1

(* the lanes with the uop count folded into a copy, so the state keeps
   going *)
let digest_result st =
  let fin = { st with uops = 0 } in
  fold fin st.uops;
  Printf.sprintf "%016x%016x" fin.lane_a fin.lane_b

(* A completed program run. *)
type run = {
  output : string;             (* MMIO console output *)
  retired : int;               (* dynamic instruction count (HALT included) *)
  trace : uop array;           (* empty unless tracing was requested *)
  dist_histogram : int array;  (* source-distance counts, index = distance;
                                  only filled for STRAIGHT runs *)
}
