(* Functional (instruction-set level) simulator for STRAIGHT.

   The architectural register file is modelled as the paper describes it: a
   key-value ring indexed by the register pointer (RP).  Instruction number
   [k] writes slot [k mod ring]; a source distance [d] reads slot
   [(k - d) mod ring]; distance 0 reads the hard-wired zero.  SP is the only
   overwritable register and is updated in order by SPADD.

   STRAIGHT offers precise interrupts (Section III-A): the architectural
   state is exactly {PC, SP, RP} plus the bounded window of the last
   [max_dist] register values (older values can never be referenced).
   [checkpoint]/[resume] implement that contract; [Machine.save]/[load]
   encode it, and the test suite checks that interrupting a run at any
   instruction boundary and resuming from the encoded state is
   indistinguishable from an uninterrupted run. *)

module Isa = Straight_isa.Isa
module Encoding = Straight_isa.Encoding
module Layout = Assembler.Layout
module Image = Assembler.Image

let fail fmt =
  Diag.error ~context:[ ("iss", "straight") ] Diag.Exec_error fmt

(* Ring size: any power of two strictly greater than the maximum referable
   distance works functionally (the microarchitectural MAX_RP sizing rule is
   checked by the cycle model, not here). *)
let ring = 2048
let ring_mask = ring - 1

type config = {
  max_insns : int;       (* abort runaway programs *)
  collect_trace : bool;  (* keep the full uop trace for the timing models *)
  collect_dist : bool;   (* fill the source-distance histogram (Fig. 16) *)
}

let default_config =
  { max_insns = 50_000_000; collect_trace = false; collect_dist = false }

(* Register words are OCaml ints carrying their sign-extended 32-bit
   value ([Isa.sext32]), so a retirement boxes nothing; [checkpoint] and
   [resume] convert at the [int32] boundary. *)
type session = {
  code : Isa.resolved array;
  text_base : int;
  mem : Memory.t;
  regs : int array;
  mutable sp : int;
  mutable pc : int;
  mutable count : int;          (* retired instructions = architectural RP *)
  mutable halted : bool;
  config : config;
  mutable uops : Trace.uop list;
  dist_hist : int array;
  on_retire : (int -> Trace.uop -> unit) option;
      (* observer fed (index, uop) at every retirement, independent of
         trace collection — the functional-warming / sampling tap *)
  shapes : Text.shapes Lazy.t;
}

(* The uop the instruction at [pc] retires as, given its dynamic
   outcomes: the memory address, whether a conditional branch was taken,
   and the pc the run continues at (JR's target). *)
let retired_uop pc (insn : Isa.resolved) ~mem_addr ~taken ~next : Trace.uop =
  let fu =
    match Isa.kind insn with
    | Isa.Kmul -> Trace.FU_mul
    | Isa.Kdiv -> Trace.FU_div
    | Isa.Kload -> Trace.FU_load
    | Isa.Kstore -> Trace.FU_store
    | Isa.Kbranch | Isa.Kjump -> Trace.FU_branch
    | Isa.Kalu | Isa.Krmov | Isa.Knop | Isa.Khalt -> Trace.FU_alu
  in
  let ctrl =
    match insn with
    | Isa.Bez (_, off) | Isa.Bnz (_, off) ->
      Trace.Cond { taken; target = pc + (4 * off) }
    | Isa.J off ->
      Trace.Uncond { target = pc + (4 * off); is_call = false; is_ret = false }
    | Isa.Jal off ->
      Trace.Uncond { target = pc + (4 * off); is_call = true; is_ret = false }
    | Isa.Jr _ -> Trace.Uncond { target = next; is_call = false; is_ret = true }
    | _ -> Trace.Not_ctrl
  in
  { Trace.pc;
    fu;
    srcs_dist = Array.of_list (List.filter (fun d -> d > 0) (Isa.sources insn));
    srcs_reg = [||];
    dest_reg = 0;
    has_dest = true;
    is_rmov = (match insn with Isa.Rmov _ -> true | _ -> false);
    is_nop = (match insn with Isa.Nop -> true | _ -> false);
    is_spadd = (match insn with Isa.Spadd _ -> true | _ -> false);
    mem_addr;
    ctrl }

let uop_shape pc insn = retired_uop pc insn ~mem_addr:0 ~taken:false ~next:(-1)

let is_stop = function Isa.Halt -> true | _ -> false

(* The retired uop of [insn], the text word [idx]: its shape, copied
   only to set a memory address or JR's target. *)
let session_uop s idx (insn : Isa.resolved) ~mem_addr ~taken ~next =
  let shapes = Lazy.force s.shapes in
  let shape = shapes.Text.not_taken.(idx) in
  match insn with
  | Isa.Ld _ | Isa.St _ -> { shape with Trace.mem_addr }
  | Isa.Jr _ ->
    { shape with
      Trace.ctrl =
        Trace.Uncond { target = next; is_call = false; is_ret = true } }
  | _ -> if taken then shapes.Text.taken.(idx) else shape

(* The precise architectural state at an instruction boundary: PC, SP, RP,
   and the last [max_dist] register values (window.(i) is the value at
   distance i+1). *)
type arch_state = {
  a_pc : int;
  a_sp : int32;
  a_rp : int;
  a_window : int32 array;
}

(* [checkpoint s] captures the architectural state (e.g. to take an
   interrupt).  Memory is shared state and is not part of the register
   checkpoint, as in a conventional CPU. *)
let checkpoint (s : session) : arch_state =
  { a_pc = s.pc;
    a_sp = Int32.of_int s.sp;
    a_rp = s.count;
    a_window =
      Array.init Isa.max_dist (fun i ->
          let d = i + 1 in
          if d > s.count then 0l
          else Int32.of_int s.regs.((s.count - d) land ring_mask)) }

(* [resume ?config image mem state] rebuilds a session from a checkpoint:
   only {PC, SP, RP, window} are needed — the paper's precise-interrupt
   property. *)
let resume ?(config = default_config) ?on_retire (image : Image.t)
    (mem : Memory.t) (st : arch_state) : session =
  let code =
    Text.decode Encoding.decode image ~illegal:(fun w pc ->
        fail "illegal instruction word 0x%lx at 0x%x" w pc)
  and text_base = image.Image.text_base in
  let s =
    { code;
      text_base;
      mem;
      regs = Array.make ring 0;
      sp = Int32.to_int st.a_sp;
      pc = st.a_pc;
      count = st.a_rp;
      halted = false;
      config;
      uops = [];
      dist_hist = Array.make (Isa.max_dist + 1) 0;
      on_retire;
      shapes = Text.shapes retired_uop ~is_stop text_base code }
  in
  Array.iteri
    (fun i v ->
       let d = i + 1 in
       if d <= st.a_rp then
         s.regs.((st.a_rp - d) land ring_mask) <- Int32.to_int v)
    st.a_window;
  s

(* [start ?config image] loads the image and returns a fresh session at the
   reset state (SP at the stack top, PC at the entry point). *)
let start ?config ?on_retire (image : Image.t) : session =
  let mem = Memory.create () in
  Memory.load_image mem image;
  resume ?config ?on_retire image mem
    { a_pc = image.Image.entry; a_sp = Int32.of_int Layout.stack_top;
      a_rp = 0; a_window = [||] }

let read_src s d = if d = 0 then 0 else s.regs.((s.count - d) land ring_mask)

let record_dist s d =
  if s.config.collect_dist && d > 0 then s.dist_hist.(d) <- s.dist_hist.(d) + 1

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
  if idx < 0 || idx >= Array.length s.code then fail "PC out of text: 0x%x" s.pc;
  let insn = s.code.(idx) in
  let here = s.pc in
  let next = ref (here + 4) in
  let result = ref 0 in
  let mem_addr = ref 0 in
  let taken = ref false in
  (match insn with
   | Isa.Alu (op, a, b) ->
     record_dist s a; record_dist s b;
     result := Isa.eval_alu_int op (read_src s a) (read_src s b)
   | Isa.Alui (op, a, i) ->
     record_dist s a;
     result :=
       Isa.eval_alu_int (Isa.alu_of_alui op) (read_src s a) (Int32.to_int i)
   | Isa.Lui i -> result := Int32.to_int (Int32.shift_left i 12)
   | Isa.Rmov a -> record_dist s a; result := read_src s a
   | Isa.Nop -> result := 0
   | Isa.Ld (b, off) ->
     record_dist s b;
     mem_addr := Isa.u32 (read_src s b + off);
     result := Memory.read_int s.mem !mem_addr
   | Isa.St (v, b, off) ->
     record_dist s v; record_dist s b;
     mem_addr := Isa.u32 (read_src s b + off);
     let value = read_src s v in
     Memory.write_int s.mem !mem_addr value;
     (* The paper: "store value is returned in the current specification" *)
     result := value
   | Isa.Bez (a, off) ->
     record_dist s a;
     if read_src s a = 0 then begin
       taken := true;
       next := here + (4 * off)
     end
   | Isa.Bnz (a, off) ->
     record_dist s a;
     if read_src s a <> 0 then begin
       taken := true;
       next := here + (4 * off)
     end
   | Isa.J off -> next := here + (4 * off)
   | Isa.Jal off ->
     result := Isa.sext32 (here + 4);
     next := here + (4 * off)
   | Isa.Jr a ->
     record_dist s a;
     next := Isa.u32 (read_src s a);
     result := Isa.sext32 (here + 4)
   | Isa.Spadd i ->
     s.sp <- Isa.sext32 (s.sp + i);
     result := s.sp
   | Isa.Halt -> s.halted <- true);
  s.regs.(s.count land ring_mask) <- !result;
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

(* [run_session ?until s] executes until HALT (or until the retired count
   reaches [until]). *)
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
    dist_histogram = s.dist_hist }

(* [run ?config image] executes the whole program. *)
let run ?(config = default_config) (image : Image.t) : Trace.run =
  let s = start ~config image in
  run_session s;
  finish s

(* Exit value of a halted session.  The startup stub is
   [_start: JAL f_main; HALT] and the epilogue places the return value
   immediately before JR, so once HALT retires the three youngest slots
   are HALT, JR, retval — main's result sits at distance 3. *)
let exit_value (s : session) : int32 =
  if s.count < 3 then 0l else Int32.of_int s.regs.((s.count - 3) land ring_mask)
