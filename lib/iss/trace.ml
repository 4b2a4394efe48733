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

(* Canonical fingerprint of a retirement stream, used by the snapshot
   machinery to prove that a regenerated run matches the one a
   checkpoint was taken against.  Every field of every uop is written to
   a buffer; every [digest_chunk] uops the buffer is folded into a
   running MD5 chain, so a stream of any length is fingerprinted in
   bounded memory.  Any behavioural change to the ISS or the compilers
   changes the digest. *)
type digest_state = { dbuf : Buffer.t; mutable pending : int }

let digest_chunk = 4096

let digest_init () =
  let dbuf = Buffer.create (64 * digest_chunk) in
  Buffer.add_string dbuf "straight-trace-digest/2";
  { dbuf; pending = 0 }

let digest_add st u =
  let b = st.dbuf in
  let add_int n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let add_bool v = Buffer.add_char b (if v then '1' else '0') in
  let fu_code = function
    | FU_alu -> 0 | FU_mul -> 1 | FU_div -> 2 | FU_branch -> 3
    | FU_load -> 4 | FU_store -> 5
  in
  add_int u.pc;
  add_int (fu_code u.fu);
  Array.iter add_int u.srcs_dist;
  Buffer.add_char b ';';
  Array.iter add_int u.srcs_reg;
  Buffer.add_char b ';';
  add_int u.dest_reg;
  add_bool u.has_dest;
  add_bool u.is_rmov;
  add_bool u.is_nop;
  add_bool u.is_spadd;
  add_int u.mem_addr;
  (match u.ctrl with
   | Not_ctrl -> Buffer.add_char b 'n'
   | Cond { taken; target } ->
     Buffer.add_char b 'c'; add_bool taken; add_int target
   | Uncond { target; is_call; is_ret } ->
     Buffer.add_char b 'u'; add_int target; add_bool is_call;
     add_bool is_ret);
  Buffer.add_char b '\n';
  st.pending <- st.pending + 1;
  if st.pending = digest_chunk then begin
    let h = Digest.string (Buffer.contents b) in
    Buffer.clear b;
    Buffer.add_string b h;
    st.pending <- 0
  end

let digest_result st = Digest.to_hex (Digest.string (Buffer.contents st.dbuf))

(* A completed program run. *)
type run = {
  output : string;             (* MMIO console output *)
  retired : int;               (* dynamic instruction count (HALT included) *)
  trace : uop array;           (* empty unless tracing was requested *)
  dist_histogram : int array;  (* source-distance counts, index = distance;
                                  only filled for STRAIGHT runs *)
}
