(* STRAIGHT code generation (Section IV of the paper).

   The central obligation: every consumer must find each source operand at a
   statically known *distance* (number of dynamically executed instructions
   since the producer), identical along every control-flow path.

   Mechanics, per function:

   - Critical edges are split, so every merge block's predecessor has the
     merge as its unique successor.
   - Every merge block S gets an *entry frame*: an ordered list of values
     (live-ins plus phi defs).  Each predecessor ends with a "tail" that
     produces the frame values in order (RMOV padding, Fig. 8(c)), followed
     by exactly one terminator slot (J, or NOP when falling through,
     Fig. 9) — so distances at S's entry are path-independent.
   - Non-merge blocks inherit the distance environment of their unique
     predecessor.
   - Distance bounding: whenever a live value's distance approaches the
     configured maximum, a refresh batch of RMOVs re-produces all live
     values (Section IV-C-3).
   - Calling convention (Fig. 5/6): arguments are produced immediately
     before JAL; the return value immediately before JR; all caller values
     live across the call are spilled to the stack frame, because the
     callee's dynamic length is unknown.  SPADD materializes the frame
     base; SPADD 0 re-materializes it after calls.
   - RE+ (Section IV-D): producers are sunk into frame tails instead of
     RMOVs; the return address and call-crossing values are relayed
     through the stack (store-once, dominance-checked validity, lazy
     reload); shared address values are localized per use block; the frame
     base is re-materialized with SPADD 0 on demand instead of being
     carried in frames. *)

module Isa = Straight_isa.Isa
module Ir = Ssa_ir.Ir
module Analysis = Ssa_ir.Analysis
module IntSet = Analysis.IntSet

let fail fmt =
  Diag.error ~context:[ ("target", "straight") ] Diag.Codegen_error fmt

type opt_level = Raw | Re_plus

type config = {
  max_dist : int;     (* maximum source distance the code may use *)
  level : opt_level;
}

let default_config = { max_dist = Isa.max_dist; level = Re_plus }

(* Backend pseudo-values threaded through the same distance machinery as IR
   values. *)
let vk_retaddr = -2
let vk_frame_base = -1

(* The final frame size is only known once emission has decided every
   pressure spill, so prologue/epilogue SPADDs are emitted with these
   placeholder immediates and patched afterwards. *)
let spadd_alloc_marker = min_int / 2
let spadd_free_marker = max_int / 2

type item = string Isa.t Assembler.Asm.item

(* ---------- per-function emission state ---------- *)

type fstate = {
  cfg : Analysis.cfg;
  lv : Analysis.liveness;
  cfgc : config;
  func : Ir.func;
  globals : (string, int) Hashtbl.t;      (* symbol -> absolute address *)
  mutable items : item list;              (* reversed *)
  mutable idx : int;                      (* emission index of next insn *)
  pos : (int, int) Hashtbl.t;             (* value -> producer index *)
  mutable tmp : int;                      (* fresh pseudo-value keys *)
  (* liveness bookkeeping within the current block *)
  mutable remaining : (int, int) Hashtbl.t;
  mutable live_out : IntSet.t;
  mutable ra_live : bool;                 (* retaddr carried in registers *)
  mutable fb_live : bool;                 (* frame base carried in registers *)
  spill_slot : (int, int) Hashtbl.t;      (* value -> frame byte offset *)
  mutable next_slot : int;                (* next free frame byte offset *)
  mutable has_frame : bool;               (* prologue SPADD emitted *)
  mutable spilling : bool;                (* re-entrancy guard *)
  mutable held : int list;                (* values pinned across headroom
                                             checks inside one lowering
                                             sequence: refresh batches must
                                             re-position them even though
                                             the use-count bookkeeping does
                                             not know them (pseudo temps) *)
  def_of : (int, Ir.inst) Hashtbl.t;      (* IR value -> defining inst *)
  in_slot : (int, int list) Hashtbl.t;    (* value -> RPO indices of blocks
                                             whose spill stores wrote it; the
                                             slot is valid wherever any of
                                             them dominates *)
  idom : int array;                       (* immediate dominators (RPO) *)
  mutable cur_block : int;                (* RPO index being emitted *)
  ra_slot : int option;                   (* RE+: retaddr stack slot *)
  mutable frame_size : int;
  merge_frames : (int, int list) Hashtbl.t; (* block idx -> ordered frame *)
}

(* The short-form ST encodes a signed 6-bit *word* offset: the byte
   offset must be word aligned on top of the range check, or the encoder
   rejects the instruction long after codegen committed to it. *)
let st_short_form (off : int) : bool =
  off land 3 = 0
  && off >= Straight_isa.Encoding.st_min_offset
  && off <= Straight_isa.Encoding.st_max_offset

let block_label fname bid = Printf.sprintf ".L%s_%d" fname bid
let label_of st bid = block_label st.func.Ir.name bid
let func_label name = "f_" ^ name

let push st it = st.items <- it :: st.items

(* Emit one instruction with NO capacity checking (callers guarantee it). *)
let emit_raw st insn : int =
  let i = st.idx in
  push st (Assembler.Asm.Insn insn);
  st.idx <- i + 1;
  i

let define st v i = Hashtbl.replace st.pos v i

let dist_of st v : int option =
  match Hashtbl.find_opt st.pos v with
  | Some p -> Some (st.idx - p)
  | None -> None

let dist_exn st v =
  match dist_of st v with
  | Some d ->
    if d < 1 || d > st.cfgc.max_dist then
      fail "%s: distance %d for value %d out of range (max %d)"
        st.func.Ir.name d v st.cfgc.max_dist;
    d
  | None -> fail "%s: value %d has no position" st.func.Ir.name v

let fresh_tmp st =
  st.tmp <- st.tmp - 1;
  st.tmp

(* An IR value with a use left in the current block, or live out of it. *)
let needed st v =
  v >= 0
  && ((match Hashtbl.find_opt st.remaining v with
       | Some n -> n > 0
       | None -> false)
      || IntSet.mem v st.live_out)

(* Values that must remain reachable at the current point. *)
let live_values st : int list =
  let base =
    Hashtbl.fold (fun v _ acc -> if needed st v then v :: acc else acc) st.pos []
  in
  (* Pseudo values participate in refresh batches whenever they are
     positioned: the return address while carried, and the frame base
     between its (re-)materialization and its uses. *)
  let base = if Hashtbl.mem st.pos vk_retaddr then vk_retaddr :: base else base in
  let base = if Hashtbl.mem st.pos vk_frame_base then vk_frame_base :: base else base in
  (* held values: mid-sequence temporaries (and operands resolved to
     temporaries) that must survive any refresh batch fired between their
     definition and their use *)
  List.fold_left
    (fun acc v ->
       if Hashtbl.mem st.pos v && not (List.mem v acc) then v :: acc else acc)
    base st.held

(* Is positioned value [v] one of [live_values]? *)
let is_live st v =
  needed st v || v = vk_retaddr || v = vk_frame_base || List.mem v st.held

(* Pin [v] across the headroom checks of the current lowering sequence:
   refresh batches re-position it, and spill_pressure counts it.  Always
   balanced with [unhold] inside a single instruction's lowering; the held
   list is empty at block boundaries. *)
let hold st v = st.held <- v :: st.held

let unhold st v =
  let rec drop_one = function
    | [] -> []
    | x :: tl -> if x = v then tl else x :: drop_one tl
  in
  st.held <- drop_one st.held

(* The spill slot of [v] holds its value at the current point iff the
   store site dominates the current block (slots are written once per value
   and never overwritten — SSA). *)
let slot_valid st v =
  match Hashtbl.find_opt st.in_slot v with
  | Some store_blocks ->
    Array.length st.idom > 0
    && List.exists
         (fun b -> Analysis.dominates st.idom b st.cur_block)
         store_blocks
  | None -> false

(* Under register pressure — more live values than the maximum distance can
   keep addressable through a frame tail — spill the values with no
   remaining use in the current block to their frame slots (the paper's
   "storing such variables in the stack frame", Section IV-D) and drop
   them from the distance environment; they reload lazily at their next
   use.  Spills run farthest-first, so every store reads within range. *)
let spill_pressure st ~(live : int list) ~(headroom : int) =
  if not st.has_frame then
    fail "%s: %d live values exceed max distance %d and the function has \
          no frame to spill into"
      st.func.Ir.name (List.length live) st.cfgc.max_dist;
  st.spilling <- true;
  (* keep values still needed in this block; spill the rest (live-out
     only), farthest first *)
  let spillable =
    List.filter
      (fun v ->
         v >= 0
         && (match Hashtbl.find_opt st.remaining v with
             | Some n -> n = 0
             | None -> true))
      live
    |> List.map (fun v -> (v, st.idx - Hashtbl.find st.pos v))
    |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
  in
  let n_live = ref (List.length live) in
  (* re-materialize the frame base first so the stores can address it *)
  let fb_idx = emit_raw st (Isa.Spadd 0) in
  Hashtbl.replace st.pos vk_frame_base fb_idx;
  List.iter
    (fun (v, _) ->
       if !n_live + headroom - 1 > st.cfgc.max_dist then begin
         let off =
           match Hashtbl.find_opt st.spill_slot v with
           | Some off -> off
           | None ->
             let off = st.next_slot in
             st.next_slot <- off + 4;
             Hashtbl.replace st.spill_slot v off;
             off
         in
         if not (slot_valid st v) then begin
           let d = st.idx - Hashtbl.find st.pos v in
           if d < 1 || d > st.cfgc.max_dist then
             fail "%s: pressure spill of value %d at distance %d"
               st.func.Ir.name v d;
           if st_short_form off then
             ignore
               (emit_raw st
                  (Isa.St (d, st.idx - Hashtbl.find st.pos vk_frame_base, off)))
           else begin
             let a =
               emit_raw st
                 (Isa.Alui
                    (Isa.Addi,
                     st.idx - Hashtbl.find st.pos vk_frame_base,
                     Int32.of_int off))
             in
             ignore
               (emit_raw st (Isa.St (st.idx - Hashtbl.find st.pos v, st.idx - a, 0)))
           end;
           let prev = Option.value ~default:[] (Hashtbl.find_opt st.in_slot v) in
           Hashtbl.replace st.in_slot v (st.cur_block :: prev)
         end;
         Hashtbl.remove st.pos v;
         decr n_live
       end)
    spillable;
  st.spilling <- false;
  if !n_live + headroom - 1 > st.cfgc.max_dist then
    fail "%s: register pressure (%d values needed in the current block) \
          exceeds max distance %d"
      st.func.Ir.name !n_live st.cfgc.max_dist

(* Refresh every live value with an RMOV, farthest first.  Producer
   positions are refreshed once each in descending distance order, so no
   read ever reaches beyond the current maximum distance; values aliasing
   one position (a pseudo temp pinned to an IR value's producer) move
   together, keeping the refreshed distances pairwise distinct. *)
let refresh_all st =
  let live = live_values st in
  let by_pos = Hashtbl.create 16 in
  List.iter
    (fun v ->
       let p = Hashtbl.find st.pos v in
       let prev = Option.value ~default:[] (Hashtbl.find_opt by_pos p) in
       Hashtbl.replace by_pos p (v :: prev))
    live;
  let groups = Hashtbl.fold (fun p vs acc -> (p, vs) :: acc) by_pos [] in
  let sorted = List.sort (fun (p1, _) (p2, _) -> compare p1 p2) groups in
  List.iter
    (fun (_, vs) ->
       let d = dist_exn st (List.hd vs) in
       let i = emit_raw st (Isa.Rmov d) in
       List.iter (fun v -> define st v i) vs)
    sorted

(* Ensure that [headroom] more instructions can be emitted before any live
   value's distance would exceed the maximum. *)
let ensure_headroom st headroom =
  (* refresh exactly when some live value would end up beyond the maximum
     after [headroom] more instructions; only values that far back need
     the liveness test *)
  let far = st.cfgc.max_dist - headroom in
  if (not st.spilling)
  && (far < 0
      || Hashtbl.fold
           (fun v p acc -> acc || (st.idx - p > far && is_live st v))
           st.pos false)
  then begin
    let live = live_values st in
    (* after a refresh the live values sit at distances 1..n_live; the
       batch only helps if the worst-case read — the farthest value
       consumed by the last of the [headroom] instructions — still fits.
       Values aliasing one producer position share one refresh slot, so
       count distinct positions, not values. *)
    let n_live =
      List.length
        (List.sort_uniq compare
           (List.map (fun v -> Hashtbl.find st.pos v) live))
    in
    if n_live + headroom - 1 > st.cfgc.max_dist then
      spill_pressure st ~live ~headroom;
    refresh_all st
  end

(* Checked emission used for ordinary instructions. *)
let emit st insn : int =
  ensure_headroom st 1;
  emit_raw st insn


(* Record one consumed use of an IR value. *)
let consume st v =
  if v >= 0 then
    match Hashtbl.find_opt st.remaining v with
    | Some n when n > 0 -> Hashtbl.replace st.remaining v (n - 1)
    | _ -> ()

(* ---------- constants ---------- *)

let fits_imm16 (v : int32) = v >= -32768l && v <= 32767l

(* Materialize a 32-bit constant; returns the pseudo-value holding it.
   1 instruction for imm16/LUI-able values, 2 otherwise. *)
let materialize_const st (c : int32) : int =
  let t = fresh_tmp st in
  if fits_imm16 c then begin
    let i = emit st (Isa.Alui (Isa.Addi, 0, c)) in
    define st t i
  end
  else begin
    let lo = Int32.of_int ((Int32.to_int c + 32768) land 0xFFFF - 32768) in
    let hi =
      Int32.to_int (Int32.sub c lo) lsr 12 land 0xFFFFF |> Int32.of_int
    in
    let i = emit st (Isa.Lui hi) in
    define st t i;
    if lo <> 0l then begin
      hold st t;
      ensure_headroom st 1;
      let d = dist_exn st t in
      let i2 = emit_raw st (Isa.Alui (Isa.Addi, d, lo)) in
      define st t i2;
      unhold st t
    end
  end;
  t

(* Resolve an operand to a value key holding it, materializing constants. *)
let operand_value st (op : Ir.operand) : int =
  match op with
  | Ir.Val v -> v
  | Ir.Const c -> materialize_const st c

(* ---------- instruction selection for one IR instruction ---------- *)

let alui_of_binop : Ir.binop -> Isa.alui_op option = function
  | Ir.Add -> Some Isa.Addi
  | Ir.And -> Some Isa.Andi
  | Ir.Or -> Some Isa.Ori
  | Ir.Xor -> Some Isa.Xori
  | Ir.Shl -> Some Isa.Slli
  | Ir.Lshr -> Some Isa.Srli
  | Ir.Ashr -> Some Isa.Srai
  | _ -> None

(* Shift-by-constant is defined modulo 32 (eval_alu reads only the low
   five bits); the encoder rejects SLLi/SRLi/SRAi immediates outside
   [0,31], so reduce before emitting the immediate form. *)
let norm_binop_imm (op : Ir.binop) (c : int32) : int32 =
  match op with
  | Ir.Shl | Ir.Lshr | Ir.Ashr -> Int32.logand c 31l
  | _ -> c

let alu_of_binop : Ir.binop -> Isa.alu_op = function
  | Ir.Add -> Isa.Add | Ir.Sub -> Isa.Sub | Ir.Mul -> Isa.Mul
  | Ir.Div -> Isa.Div | Ir.Divu -> Isa.Divu | Ir.Rem -> Isa.Rem
  | Ir.Remu -> Isa.Remu | Ir.And -> Isa.And | Ir.Or -> Isa.Or
  | Ir.Xor -> Isa.Xor | Ir.Shl -> Isa.Sll | Ir.Lshr -> Isa.Srl
  | Ir.Ashr -> Isa.Sra

let commutative : Ir.binop -> bool = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

(* Emit `result := binop a b` and return the defining index. *)
let emit_binop st op (a : Ir.operand) (b : Ir.operand) : int =
  let imm_form v c =
    let c = norm_binop_imm op c in
    match alui_of_binop op with
    | Some aop when fits_imm16 c ->
      (* headroom first: a refresh batch would invalidate distances
         computed before it *)
      ensure_headroom st 1;
      Some (emit_raw st (Isa.Alui (aop, dist_exn st v, c)))
    | _ -> None
  in
  match op, a, b with
  | _, Ir.Val v, Ir.Const c ->
    (match imm_form v c with
     | Some i -> i
     | None ->
       (* sub with small constant folds into addi of the negation *)
       if op = Ir.Sub && fits_imm16 (Int32.neg c) then begin
         ensure_headroom st 1;
         emit_raw st (Isa.Alui (Isa.Addi, dist_exn st v, Int32.neg c))
       end
       else begin
         let t = materialize_const st c in
         hold st t;
         ensure_headroom st 1;
         let i =
           emit_raw st
             (Isa.Alu (alu_of_binop op, dist_exn st v, dist_exn st t))
         in
         unhold st t; i
       end)
  | _, Ir.Const c, Ir.Val v when commutative op ->
    (match imm_form v c with
     | Some i -> i
     | None ->
       let t = materialize_const st c in
       hold st t;
       ensure_headroom st 1;
       let i = emit_raw st (Isa.Alu (alu_of_binop op, dist_exn st t, dist_exn st v)) in
       unhold st t; i)
  | _, Ir.Const ca, Ir.Const cb ->
    (* the optimizer folds these, but stay correct regardless *)
    let ta = materialize_const st ca in
    hold st ta;
    let tb = materialize_const st cb in
    hold st tb;
    ensure_headroom st 1;
    let i = emit_raw st (Isa.Alu (alu_of_binop op, dist_exn st ta, dist_exn st tb)) in
    unhold st tb; unhold st ta; i
  | _, Ir.Const c, Ir.Val v ->
    let t = materialize_const st c in
    hold st t;
    ensure_headroom st 1;
    let i = emit_raw st (Isa.Alu (alu_of_binop op, dist_exn st t, dist_exn st v)) in
    unhold st t; i
  | _, Ir.Val va, Ir.Val vb ->
    ensure_headroom st 1;
    emit_raw st (Isa.Alu (alu_of_binop op, dist_exn st va, dist_exn st vb))

(* Emit a comparison producing 0/1.  Returns the defining index. *)
let emit_cmp st op (a : Ir.operand) (b : Ir.operand) : int =
  let val_of = operand_value st in
  (* resolve both operands; the first (possibly a constant temp) must
     survive the materialization of the second *)
  let val2 a b =
    let x = val_of a in
    hold st x;
    let y = val_of b in
    unhold st x;
    (x, y)
  in
  let negate i =
    (* invert a 0/1 value *)
    let t = fresh_tmp st in
    define st t i;
    hold st t;
    ensure_headroom st 1;
    let r = emit_raw st (Isa.Alui (Isa.Xori, dist_exn st t, 1l)) in
    unhold st t; r
  in
  let slt signed x y =
    let op = if signed then Isa.Slt else Isa.Sltu in
    hold st x; hold st y;
    ensure_headroom st 1;
    let r = emit_raw st (Isa.Alu (op, dist_exn st x, dist_exn st y)) in
    unhold st y; unhold st x; r
  in
  match op with
  | Ir.Lt ->
    (match b with
     | Ir.Const c when fits_imm16 c ->
       let x = val_of a in
       hold st x;
       ensure_headroom st 1;
       let r = emit_raw st (Isa.Alui (Isa.Slti, dist_exn st x, c)) in
       unhold st x; r
     | _ ->
       let x, y = val2 a b in
       slt true x y)
  | Ir.Ltu ->
    (match b with
     | Ir.Const c when fits_imm16 c ->
       let x = val_of a in
       hold st x;
       ensure_headroom st 1;
       let r = emit_raw st (Isa.Alui (Isa.Sltui, dist_exn st x, c)) in
       unhold st x; r
     | _ ->
       let x, y = val2 a b in
       slt false x y)
  | Ir.Ge ->
    let x, y = val2 a b in
    negate (slt true x y)
  | Ir.Geu ->
    let x, y = val2 a b in
    negate (slt false x y)
  | Ir.Gt ->
    let x, y = val2 a b in
    slt true y x
  | Ir.Le ->
    let x, y = val2 a b in
    negate (slt true y x)
  | Ir.Eq | Ir.Ne ->
    (* xor, then compare against zero *)
    let diff_idx =
      match a, b with
      | x, Ir.Const 0l | Ir.Const 0l, x ->
        let v = val_of x in
        Hashtbl.find st.pos v
      | _ ->
        let x, y = val2 a b in
        hold st x; hold st y;
        ensure_headroom st 1;
        let r = emit_raw st (Isa.Alu (Isa.Xor, dist_exn st x, dist_exn st y)) in
        unhold st y; unhold st x; r
    in
    let t = fresh_tmp st in
    define st t diff_idx;
    hold st t;
    let r =
      if op = Ir.Eq then begin
        ensure_headroom st 1;
        emit_raw st (Isa.Alui (Isa.Sltui, dist_exn st t, 1l))
      end
      else begin
        ensure_headroom st 1;
        (* 0 <u x  <=>  x <> 0 *)
        emit_raw st (Isa.Alu (Isa.Sltu, 0, dist_exn st t))
      end
    in
    unhold st t; r

(* ---------- frame base handling ---------- *)

(* Obtain the frame-base value key, re-materializing it with SPADD 0 when it
   is not carried (RE+, or after a call). *)
let frame_base st : int =
  match dist_of st vk_frame_base with
  | Some d when d >= 1 && d < st.cfgc.max_dist -> vk_frame_base
  | _ ->
    (* not carried (RE+), expired, or wiped by a call: SPADD 0 copies the
       architectural SP into a fresh register *)
    let i = emit st (Isa.Spadd 0) in
    define st vk_frame_base i;
    vk_frame_base

let emit_store_to_frame st ~value_key ~offset =
  let fb = frame_base st in
  if st_short_form offset then begin
    ensure_headroom st 1;
    ignore (emit_raw st (Isa.St (dist_exn st value_key, dist_exn st fb, offset)))
  end
  else begin
    let t = fresh_tmp st in
    ensure_headroom st 1;
    let i = emit_raw st (Isa.Alui (Isa.Addi, dist_exn st fb, Int32.of_int offset)) in
    define st t i;
    hold st t;
    ensure_headroom st 1;
    ignore (emit_raw st (Isa.St (dist_exn st value_key, dist_exn st t, 0)));
    unhold st t
  end

let emit_load_from_frame st ~offset : int =
  let fb = frame_base st in
  ensure_headroom st 1;
  emit_raw st (Isa.Ld (dist_exn st fb, offset))

(* Make sure value [v] has a register position: reload it lazily from its
   spill slot, or re-execute a rematerializable producer (RE+ lazy reload
   after calls; cf. the stack relays of Fig. 10(c)). *)
let ensure_positioned st v =
  if v >= 0 && not (Hashtbl.mem st.pos v) then begin
    if slot_valid st v then begin
      let off =
        match Hashtbl.find_opt st.spill_slot v with
        | Some off -> off
        | None -> fail "%s: value %d slotted without a slot" st.func.Ir.name v
      in
      let i = emit_load_from_frame st ~offset:off in
      define st v i
    end
    else
      match Hashtbl.find_opt st.def_of v with
      | Some (Ir.Global_addr sym) ->
        (match Hashtbl.find_opt st.globals sym with
         | Some addr ->
           let t = materialize_const st (Int32.of_int addr) in
           define st v (Hashtbl.find st.pos t)
         | None -> fail "%s: unknown global %s" st.func.Ir.name sym)
      | Some (Ir.Frame_addr off) ->
        let fb = frame_base st in
        ensure_headroom st 1;
        let i =
          emit_raw st (Isa.Alui (Isa.Addi, dist_exn st fb, Int32.of_int off))
        in
        define st v i
      | def ->
        fail "%s: value %d has no position (slot=%s cur_block=%d def=%s)"
          st.func.Ir.name v
          (match Hashtbl.find_opt st.in_slot v with
           | Some bs -> String.concat "/" (List.map string_of_int bs)
           | None -> "none")
          st.cur_block
          (match def with Some _ -> "yes" | None -> "no")
  end

let prep_uses st (inst : Ir.inst) =
  List.iter (ensure_positioned st) (Ir.inst_uses inst)

(* ---------- per-block planning (phase A) ---------- *)

(* What occupies one tail slot of a merge predecessor. *)
type slot =
  | Slot_rmov of int                  (* RMOV of an existing value *)
  | Slot_const of int32               (* single-instruction constant *)
  | Slot_bigconst of int32            (* pre-materialized before the tail *)
  | Slot_sunk of Ir.value * Ir.inst   (* RE+: the producer itself *)
  | Slot_reload of int * int          (* value, frame offset: LD in place *)
  | Slot_fb                           (* frame base: SPADD 0 in place *)

type block_plan = {
  body : (Ir.value * Ir.inst) list;   (* phis dropped, sunk insts removed *)
  (* tail for a Br-to-merge terminator: one slot per frame entry *)
  tail : (int (* frame value *) * slot) list;
  mem_tail : bool;
  (* high register pressure: the tail is emitted as loads from the frame
     (each value parked in its stack slot beforehand), so feasibility
     depends on the frame length only *)
  call_spills : (Ir.value, Ir.value list) Hashtbl.t; (* call result -> spills *)
}

(* A single-instruction pure producer can be sunk into a frame slot. *)
let sinkable_inst (inst : Ir.inst) =
  match inst with
  | Ir.Bin (op, Ir.Val _, Ir.Const c) ->
    (match alui_of_binop op with
     | Some _ -> fits_imm16 (norm_binop_imm op c)
     | None -> op = Ir.Sub && fits_imm16 (Int32.neg c))
  | Ir.Bin (_, Ir.Val _, Ir.Val _) -> true
  | Ir.Bin (op, Ir.Const c, Ir.Val _) ->
    commutative op
    && (match alui_of_binop op with Some _ -> fits_imm16 c | None -> false)
  | Ir.Frame_addr _ -> true
  | _ -> false

(* Compute the tail-slot sources for predecessor [b] entering merge frame
   [frame] (phi defs take the arm for this predecessor). *)
let tail_sources st (b : Ir.block) (succ_idx : int) (frame : int list) :
  (int * Ir.operand) list =
  let succ_block = st.cfg.Analysis.blocks.(succ_idx) in
  let phi_arm v =
    List.find_map
      (fun (v', inst) ->
         match inst with
         | Ir.Phi arms when v' = v ->
           (match List.assoc_opt b.Ir.bid arms with
            | Some op -> Some op
            | None ->
              fail "%s: phi %%%d misses arm for bb%d" st.func.Ir.name v b.Ir.bid)
         | _ -> None)
      succ_block.Ir.insts
  in
  List.map
    (fun fv ->
       if fv < 0 then (fv, Ir.Val fv)  (* pseudo values relay themselves *)
       else
         match phi_arm fv with
         | Some op -> (fv, op)
         | None -> (fv, Ir.Val fv))
    frame

let plan_block st (b : Ir.block) : block_plan =
  let bi = Analysis.block_index st.cfg b.Ir.bid in
  let body0 =
    List.filter (fun (_, inst) -> not (Ir.is_phi inst)) b.Ir.insts
  in
  (* tail (only for Br into a merge block) *)
  let tail_spec =
    match b.Ir.term with
    | Ir.Br t ->
      let ti = Analysis.block_index st.cfg t in
      (match Hashtbl.find_opt st.merge_frames ti with
       | Some frame -> Some (ti, frame)
       | None -> None)
    | _ -> None
  in
  match tail_spec with
  | None ->
    { body = body0; tail = []; mem_tail = false;
      call_spills = Hashtbl.create 1 }
  | Some (ti, frame) ->
    let sources = tail_sources st b ti frame in
    let mem_tail = (2 * (List.length frame + 2)) > st.cfgc.max_dist in
    (* count uses of each value inside the body (to veto sinking) *)
    let body_use_count = Hashtbl.create 16 in
    let bump v =
      Hashtbl.replace body_use_count v
        (1 + Option.value ~default:0 (Hashtbl.find_opt body_use_count v))
    in
    List.iter (fun (_, inst) -> List.iter bump (Ir.inst_uses inst)) body0;
    List.iter bump (Ir.term_uses b.Ir.term);
    let defs_in_b = Hashtbl.create 16 in
    List.iter (fun (v, inst) -> Hashtbl.replace defs_in_b v inst) body0;
    let sunk = Hashtbl.create 4 in
    let slots =
      List.map
        (fun (fv, src) ->
           match src with
           | Ir.Const c when fits_imm16 c -> (fv, Slot_const c)
           | Ir.Const c -> (fv, Slot_bigconst c)
           | Ir.Val v ->
             if st.cfgc.level = Re_plus && (not mem_tail)
                && (not (Hashtbl.mem sunk v))
                && (match Hashtbl.find_opt defs_in_b v with
                    | Some inst ->
                      sinkable_inst inst
                      && not (Hashtbl.mem body_use_count v)
                      (* operands must not themselves be sunk *)
                      && List.for_all
                           (fun u -> not (Hashtbl.mem sunk u))
                           (Ir.inst_uses inst)
                    | None -> false)
             then begin
               Hashtbl.replace sunk v ();
               (fv, Slot_sunk (v, Hashtbl.find defs_in_b v))
             end
             else (fv, Slot_rmov v))
        sources
    in
    let body =
      List.filter (fun (v, _) -> not (Hashtbl.mem sunk v)) body0
    in
    ignore bi;
    { body; tail = slots; mem_tail; call_spills = Hashtbl.create 1 }

(* Backward scan computing, for every call, the set of IR values live just
   after it (those must be spilled around the call). *)
let compute_call_spills st (b : Ir.block) (plan : block_plan) : unit =
  let bi = Analysis.block_index st.cfg b.Ir.bid in
  let live = ref st.lv.Analysis.live_out.(bi) in
  (* terminator + tail uses *)
  List.iter (fun v -> live := IntSet.add v !live) (Ir.term_uses b.Ir.term);
  List.iter
    (fun (_, slot) ->
       match slot with
       | Slot_rmov v when v >= 0 -> live := IntSet.add v !live
       | Slot_sunk (_, inst) ->
         List.iter (fun u -> live := IntSet.add u !live) (Ir.inst_uses inst)
       | _ -> ())
    plan.tail;
  (* sunk defs are not live before the tail in the backward direction *)
  List.iter
    (fun (_, slot) ->
       match slot with
       | Slot_sunk (v, _) -> live := IntSet.remove v !live
       | _ -> ())
    plan.tail;
  List.iter
    (fun (v, inst) ->
       (match inst with
        | Ir.Call (_, _) ->
          Hashtbl.replace plan.call_spills v
            (IntSet.elements (IntSet.remove v !live))
        | _ -> ());
       live := IntSet.remove v !live;
       List.iter (fun u -> live := IntSet.add u !live) (Ir.inst_uses inst))
    (List.rev plan.body)

(* ---------- emission (phase B) ---------- *)

let emit_ir_inst st (v : Ir.value) (inst : Ir.inst)
    ~(slot_of : Ir.value -> int) : unit =
  (match inst with Ir.Phi _ | Ir.Call _ -> () | _ -> prep_uses st inst);
  match inst with
  | Ir.Phi _ -> ()
  | Ir.Bin (op, a, b) ->
    let i = emit_binop st op a b in
    List.iter (consume st) (Ir.inst_uses inst);
    define st v i
  | Ir.Cmp (op, a, b) ->
    let i = emit_cmp st op a b in
    List.iter (consume st) (Ir.inst_uses inst);
    define st v i
  | Ir.Load (addr, off) ->
    let i =
      match addr with
      | Ir.Const c ->
        let t = materialize_const st (Int32.add c (Int32.of_int off)) in
        hold st t;
        ensure_headroom st 1;
        let r = emit_raw st (Isa.Ld (dist_exn st t, 0)) in
        unhold st t; r
      | Ir.Val a ->
        ensure_headroom st 1;
        emit_raw st (Isa.Ld (dist_exn st a, off))
    in
    List.iter (consume st) (Ir.inst_uses inst);
    define st v i
  | Ir.Store (x, addr, off) ->
    let xv = operand_value st x in
    hold st xv;
    let i =
      match addr with
      | Ir.Const c ->
        let t = materialize_const st (Int32.add c (Int32.of_int off)) in
        hold st t;
        ensure_headroom st 1;
        let r = emit_raw st (Isa.St (dist_exn st xv, dist_exn st t, 0)) in
        unhold st t; r
      | Ir.Val a ->
        if st_short_form off then begin
          ensure_headroom st 1;
          emit_raw st (Isa.St (dist_exn st xv, dist_exn st a, off))
        end
        else begin
          let t = fresh_tmp st in
          ensure_headroom st 1;
          let ai = emit_raw st (Isa.Alui (Isa.Addi, dist_exn st a, Int32.of_int off)) in
          define st t ai;
          hold st t;
          ensure_headroom st 1;
          let r = emit_raw st (Isa.St (dist_exn st xv, dist_exn st t, 0)) in
          unhold st t; r
        end
    in
    unhold st xv;
    List.iter (consume st) (Ir.inst_uses inst);
    define st v i  (* ST returns the stored value *)
  | Ir.Frame_addr off ->
    let fb = frame_base st in
    ensure_headroom st 1;
    let i = emit_raw st (Isa.Alui (Isa.Addi, dist_exn st fb, Int32.of_int off)) in
    define st v i
  | Ir.Global_addr sym ->
    (match Hashtbl.find_opt st.globals sym with
     | None -> fail "%s: unknown global %s" st.func.Ir.name sym
     | Some addr ->
       let t = materialize_const st (Int32.of_int addr) in
       (* rebind the constant's position to the IR value *)
       define st v (Hashtbl.find st.pos t))
  | Ir.Call (_, _) ->
    ignore slot_of;
    fail "calls are lowered by emit_call, not emit_ir_inst"

(* Values whose defining instruction can simply be re-executed after a
   call instead of being spilled: global/frame addresses (RE+ only; the
   spill costs ST+LD where re-materialization costs at most the same and
   frees the store). *)
let rematerializable st v =
  st.cfgc.level = Re_plus
  && (match Hashtbl.find_opt st.def_of v with
      | Some (Ir.Global_addr _) | Some (Ir.Frame_addr _) -> true
      | _ -> false)

(* Lower a call: spill live-across values, arrange arguments contiguously
   before JAL (Fig. 5), wipe the distance environment (the callee's dynamic
   length is unknown), bind the result at its conventional distance, then
   re-materialize the frame base and reload spills. *)
let emit_call st (v : Ir.value) fname (args : Ir.operand list)
    ~(spills : Ir.value list) ~(slot_of : Ir.value -> int) : unit =
  let remat, spills = List.partition (rematerializable st) spills in
  (* 1. spill every value live across the call (plus the carried return
     address in RAW mode).  Values are immutable (SSA), so a slot already
     written on every path is still valid: store once (RE+). *)
  List.iter
    (fun w ->
       if st.cfgc.level = Raw || not (slot_valid st w) then begin
         ensure_positioned st w;
         emit_store_to_frame st ~value_key:w ~offset:(slot_of w);
         let prev = Option.value ~default:[] (Hashtbl.find_opt st.in_slot w) in
         Hashtbl.replace st.in_slot w (st.cur_block :: prev)
       end)
    spills;
  if st.ra_live then
    emit_store_to_frame st ~value_key:vk_retaddr ~offset:(slot_of vk_retaddr);
  (* 2. pre-materialize argument constants the inline ADDi form below
     cannot carry.  "One instruction to materialize" is the wrong test
     here: a LUI-able constant (low 12 bits clear, e.g. 0x80000000)
     costs one instruction but still does not fit the ADDi imm16. *)
  let args =
    List.map
      (fun a ->
         match a with
         | Ir.Const c when not (fits_imm16 c) ->
           let t = materialize_const st c in
           (* pinned until the argument RMOVs are out: later argument
              materializations and the pre-JAL headroom batch must keep
              repositioning it *)
           hold st t;
           Ir.Val t
         | _ -> a)
      args
  in
  let n_args = List.length args in
  List.iter
    (fun a -> match a with Ir.Val w -> ensure_positioned st w | Ir.Const _ -> ())
    args;
  (* 3. contiguous argument producers + JAL: no refresh inside.  Headroom
     is reserved before checking argument positions (a refresh batch would
     shift them). *)
  ensure_headroom st (n_args + 1);
  (* arguments may already sit at their conventional distances (producers
     arranged just before the call): skip the RMOV padding then (RE+) *)
  let in_position =
    st.cfgc.level = Re_plus
    && args <> []
    && List.mapi (fun k a -> (k, a)) args
       |> List.for_all (fun (k, a) ->
           match a with
           | Ir.Val w ->
             (match Hashtbl.find_opt st.pos w with
              | Some p -> p = st.idx - (n_args - k)
              | None -> false)
           | Ir.Const _ -> false)
  in
  if not in_position then
    List.iter
      (fun a ->
         match a with
         | Ir.Const c -> ignore (emit_raw st (Isa.Alui (Isa.Addi, 0, c)))
         | Ir.Val w -> ignore (emit_raw st (Isa.Rmov (dist_exn st w))))
      args;
  let jal_idx = emit_raw st (Isa.Jal (func_label fname)) in
  List.iter
    (fun a ->
       match a with
       | Ir.Val w when w < 0 -> unhold st w
       | Ir.Val w -> consume st w
       | Ir.Const _ -> ())
    args;
  (* 4. environment wipe: every pre-call position is now meaningless *)
  Hashtbl.reset st.pos;
  (* retval sits immediately before the callee's JR: distance 2 right after
     the JAL in the caller's stream *)
  define st v (jal_idx - 1);
  (* 5. reload spills through a fresh frame base; re-execute the
     rematerializable producers *)
  if st.ra_live then begin
    let i = emit_load_from_frame st ~offset:(slot_of vk_retaddr) in
    define st vk_retaddr i
  end;
  (match st.cfgc.level with
   | Raw ->
     List.iter
       (fun w ->
          let i = emit_load_from_frame st ~offset:(slot_of w) in
          define st w i)
       spills
   | Re_plus ->
     (* lazy: values are reloaded / rematerialized at their next use *)
     ());
  ignore remat

(* Snapshot the register positions as distances at the next index (spill
   slot residency needs no snapshot: it is governed by dominance). *)
type env_snapshot = { positions : (int * int) list }

let snapshot st : env_snapshot =
  { positions =
      Hashtbl.fold
        (fun v p acc ->
           if v >= 0 || v = vk_retaddr || v = vk_frame_base then
             (v, st.idx - p) :: acc
           else acc)
        st.pos [] }

let install_snapshot st (snap : env_snapshot) =
  Hashtbl.reset st.pos;
  List.iter (fun (v, d) -> Hashtbl.replace st.pos v (st.idx - d)) snap.positions

(* ---------- STRAIGHT-specific pre-pass: localization ---------- *)

(* Shared zero-operand address values (Global_addr/Frame_addr, typically
   produced by CSE/LICM) are cheap to recompute but expensive to keep
   alive: every merge frame on the way relays them.  Re-materializing a
   private copy in each using block is the profitable trade on STRAIGHT
   (cf. the paper's Fig. 10(b): regenerate values instead of relaying).
   The superscalar back end keeps the shared value — it has registers to
   spare. *)
let localize_addresses (f : Ir.func) : unit =
  let defs = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
       List.iter
         (fun (v, inst) ->
            match inst with
            | Ir.Global_addr _ | Ir.Frame_addr _ ->
              Hashtbl.replace defs v (inst, b.Ir.bid)
            | _ -> ())
         b.Ir.insts)
    f.Ir.blocks;
  if Hashtbl.length defs > 0 then
    List.iter
      (fun (b : Ir.block) ->
         (* one private copy per (value, block), created on first use *)
         let local = Hashtbl.create 4 in
         let subst op =
           match op with
           | Ir.Val v ->
             (match Hashtbl.find_opt defs v with
              | Some (inst, def_bid) when def_bid <> b.Ir.bid ->
                ignore inst;
                let v' =
                  match Hashtbl.find_opt local v with
                  | Some v' -> v'
                  | None ->
                    let v' = Ir.fresh_value f in
                    Hashtbl.replace local v v';
                    v'
                in
                Ir.Val v'
              | _ -> op)
           | Ir.Const _ -> op
         in
         b.Ir.insts <-
           List.map
             (fun (v, inst) ->
                ( v,
                  match inst with
                  | Ir.Bin (op, a, x) -> Ir.Bin (op, subst a, subst x)
                  | Ir.Cmp (op, a, x) -> Ir.Cmp (op, subst a, subst x)
                  | Ir.Load (a, o) -> Ir.Load (subst a, o)
                  | Ir.Store (x, a, o) -> Ir.Store (subst x, subst a, o)
                  | Ir.Call (g, args) -> Ir.Call (g, List.map subst args)
                  (* phi arms are uses in the predecessor, not here *)
                  | Ir.Phi arms -> Ir.Phi arms
                  | Ir.Frame_addr _ | Ir.Global_addr _ -> inst ))
             b.Ir.insts;
         b.Ir.term <-
           (match b.Ir.term with
            | Ir.Ret op -> Ir.Ret (subst op)
            | Ir.Br t -> Ir.Br t
            | Ir.Cond_br (c, t1, t2) -> Ir.Cond_br (subst c, t1, t2));
         (* rewrite this block's phi arms in the successors *)
         List.iter
           (fun (sb : Ir.block) ->
              sb.Ir.insts <-
                List.map
                  (fun (v, inst) ->
                     match inst with
                     | Ir.Phi arms ->
                       ( v,
                         Ir.Phi
                           (List.map
                              (fun (p, o) ->
                                 if p = b.Ir.bid then (p, subst o) else (p, o))
                              arms) )
                     | _ -> (v, inst))
                  sb.Ir.insts)
           (List.filter_map
              (fun t -> List.find_opt (fun x -> x.Ir.bid = t) f.Ir.blocks)
              (Ir.successors b.Ir.term));
         (* materialize the private copies after this block's phis *)
         if Hashtbl.length local > 0 then begin
           let copies =
             Hashtbl.fold
               (fun v v' acc ->
                  match Hashtbl.find_opt defs v with
                  | Some (inst, _) -> (v', inst) :: acc
                  | None -> acc)
               local []
           in
           let phis, rest = List.partition (fun (_, i) -> Ir.is_phi i) b.Ir.insts in
           b.Ir.insts <- phis @ copies @ rest
         end)
      f.Ir.blocks

(* ---------- block emission ---------- *)

(* Emit the frame tail for a merge successor: one instruction per slot,
   then the terminator slot (J or NOP), with no refresh in between so the
   frame layout is exact (Fig. 8(c) / Fig. 9). *)
let emit_tail st (plan : block_plan) ~(succ_label : string)
    ~(fallthrough : bool) =
  (* High-pressure "memory tail": park every register-sourced frame value
     in its stack slot first, then emit the tail as one load per slot
     (plus SPADD 0 for the frame base and single-instruction constants).
     Feasibility then depends on the frame length only. *)
  let prepared =
    if not plan.mem_tail then None
    else begin
      if not st.has_frame then
        fail "%s: memory tail without a frame" st.func.Ir.name;
      ignore (frame_base st);
      let park v =
        let off =
          match Hashtbl.find_opt st.spill_slot v with
          | Some off -> off
          | None ->
            let off = st.next_slot in
            st.next_slot <- off + 4;
            Hashtbl.replace st.spill_slot v off;
            off
        in
        if not (slot_valid st v) then begin
          ensure_positioned st v;
          emit_store_to_frame st ~value_key:v ~offset:off;
          let prev = Option.value ~default:[] (Hashtbl.find_opt st.in_slot v) in
          Hashtbl.replace st.in_slot v (st.cur_block :: prev)
        end;
        off
      in
      let slots =
        List.map
          (fun (fv, slot) ->
             match slot with
             | Slot_const c -> (fv, Slot_const c)
             | _ when fv = vk_frame_base -> (fv, Slot_fb)
             | Slot_rmov v | Slot_reload (v, _) -> (fv, Slot_reload (v, park v))
             | Slot_bigconst c ->
               let t = materialize_const st c in
               (fv, Slot_reload (t, park t))
             | Slot_sunk (v, _) ->
               (* sinking is disabled under mem_tail; defensive fallback *)
               (fv, Slot_reload (v, park v))
             | Slot_fb -> (fv, Slot_fb))
          plan.tail
      in
      (* only the frame base is read during the tail: keep it close *)
      let len = List.length slots in
      (match dist_of st vk_frame_base with
       | Some d when d + len + 1 <= st.cfgc.max_dist -> ()
       | _ ->
         let i = emit_raw st (Isa.Spadd 0) in
         define st vk_frame_base i);
      Some slots
    end
  in
  match prepared with
  | Some slots ->
    List.iteri
      (fun j (fv, slot) ->
         ignore j;
         let i =
           match slot with
           | Slot_const c -> emit_raw st (Isa.Alui (Isa.Addi, 0, c))
           | Slot_fb -> emit_raw st (Isa.Spadd 0)
           | Slot_reload (_, off) ->
             emit_raw st (Isa.Ld (dist_exn st vk_frame_base, off))
           | Slot_rmov _ | Slot_bigconst _ | Slot_sunk _ -> assert false
         in
         (match slot with
          | Slot_fb -> define st vk_frame_base i
          | Slot_reload (v, _) -> if v >= 0 then define st v i
          | _ -> ());
         define st fv i)
      slots;
    if fallthrough then ignore (emit_raw st Isa.Nop)
    else ignore (emit_raw st (Isa.J succ_label))
  | None ->
  (* values produced by a sunk slot become positioned mid-tail; their
     later RMOV slots must not be resolved in the prepared phase *)
  let sunk_defs =
    List.filter_map
      (fun (_, slot) ->
         match slot with Slot_sunk (v, _) -> Some v | _ -> None)
      plan.tail
  in
  (* pre-materialize what cannot fit in one slot instruction *)
  let prepared =
    List.map
      (fun (fv, slot) ->
         match slot with
         | Slot_bigconst c ->
           let t = materialize_const st c in
           (* pinned until its RMOV slot is out: later slot preparations
              and the pre-tail headroom batch must keep it in range *)
           hold st t;
           (fv, Slot_rmov t)
         | Slot_sunk (_, inst) ->
           prep_uses st inst;
           (match inst with
            | Ir.Frame_addr _ -> ignore (frame_base st)
            | _ -> ());
           (fv, slot)
         | Slot_rmov v when v >= 0 && not (List.mem v sunk_defs) ->
           if (not (Hashtbl.mem st.pos v)) && slot_valid st v then begin
             (* the reload itself fills the frame slot (Fig. 10(c)) *)
             ignore (frame_base st);
             (fv, Slot_reload (v, Hashtbl.find st.spill_slot v))
           end
           else begin
             ensure_positioned st v;
             (fv, slot)
           end
         | _ -> (fv, slot))
      plan.tail
  in
  ensure_headroom st (List.length prepared + 1);
  (* Frame values are redefined only once the whole tail is out: a later
     slot may still need the *current* binding of an earlier slot's frame
     value (e.g. `sum' = sum + i` after the slot producing `i' = i + 1`). *)
  let deferred = ref [] in
  List.iter
    (fun (fv, slot) ->
       let i =
         match slot with
         | Slot_rmov v -> emit_raw st (Isa.Rmov (dist_exn st v))
         | Slot_const c -> emit_raw st (Isa.Alui (Isa.Addi, 0, c))
         | Slot_bigconst _ -> assert false (* rewritten above *)
         | Slot_reload (_, off) ->
           emit_raw st (Isa.Ld (dist_exn st vk_frame_base, off))
         | Slot_fb -> emit_raw st (Isa.Spadd 0)
         | Slot_sunk (_, inst) ->
           (match inst with
            | Ir.Bin (op, Ir.Val a, Ir.Val b) ->
              emit_raw st (Isa.Alu (alu_of_binop op, dist_exn st a, dist_exn st b))
            | Ir.Bin (op, Ir.Val a, Ir.Const c) ->
              (match alui_of_binop op with
               | Some aop ->
                 emit_raw st (Isa.Alui (aop, dist_exn st a, norm_binop_imm op c))
               | None ->
                 assert (op = Ir.Sub);
                 emit_raw st (Isa.Alui (Isa.Addi, dist_exn st a, Int32.neg c)))
            | Ir.Bin (op, Ir.Const c, Ir.Val a) ->
              (match alui_of_binop op with
               | Some aop when commutative op ->
                 emit_raw st (Isa.Alui (aop, dist_exn st a, c))
               | _ -> assert false)
            | Ir.Frame_addr off ->
              emit_raw st
                (Isa.Alui (Isa.Addi, dist_exn st vk_frame_base, Int32.of_int off))
            | _ -> assert false)
       in
       deferred := (fv, i) :: !deferred;
       (match slot with
        | Slot_sunk (v, inst) ->
          (* this *is* v's (only) SSA definition; later slots may read it *)
          define st v i;
          List.iter (consume st) (Ir.inst_uses inst)
        | Slot_reload (v, _) -> define st v i
        | Slot_fb -> define st vk_frame_base i
        | Slot_rmov _ | Slot_const _ | Slot_bigconst _ -> ()))
    prepared;
  if fallthrough then ignore (emit_raw st Isa.Nop)
  else ignore (emit_raw st (Isa.J succ_label));
  List.iter
    (fun (_, slot) ->
       match slot with Slot_rmov v when v < 0 -> unhold st v | _ -> ())
    prepared;
  List.iter (fun (fv, i) -> define st fv i) !deferred

(* Distances of the merge frame at block entry: slot j of an m-slot frame
   sits m - j + 1 instructions back (the terminator slot is distance 1). *)
let install_merge_env st (frame : int list) =
  Hashtbl.reset st.pos;
  let m = List.length frame in
  List.iteri (fun j v -> Hashtbl.replace st.pos v (st.idx - (m - j + 1))) frame

let emit_ret st (retval : Ir.operand) =
  (* RE+: the return address lives in the stack frame *)
  if not st.ra_live then begin
    match st.ra_slot with
    | Some off ->
      let i = emit_load_from_frame st ~offset:off in
      define st vk_retaddr i
    | None -> fail "%s: return address neither live nor spilled" st.func.Ir.name
  end;
  (* an unpositioned slot-resident return value is loaded directly into the
     producer slot before JR *)
  let reload_ret =
    match retval with
    | Ir.Val w when (not (Hashtbl.mem st.pos w)) && slot_valid st w ->
      ignore (frame_base st);
      Some (Hashtbl.find st.spill_slot w)
    | Ir.Val w -> ensure_positioned st w; None
    | Ir.Const _ -> None
  in
  let retval =
    match retval with
    | Ir.Const c when not (fits_imm16 c) ->
      let t = materialize_const st c in
      hold st t;
      Ir.Val t
    | _ -> retval
  in
  ensure_headroom st 3;
  (match reload_ret with
   | Some off ->
     let fb_d = dist_exn st vk_frame_base in
     if st.has_frame then ignore (emit_raw st (Isa.Spadd spadd_free_marker));
     ignore (emit_raw st (Isa.Ld (fb_d + (if st.has_frame then 1 else 0), off)))
   | None ->
     if st.has_frame then ignore (emit_raw st (Isa.Spadd spadd_free_marker));
     (* retval producer immediately before JR: distance 2 after returning *)
     (match retval with
      | Ir.Const c -> ignore (emit_raw st (Isa.Alui (Isa.Addi, 0, c)))
      | Ir.Val v ->
        ignore (emit_raw st (Isa.Rmov (dist_exn st v)));
        if v < 0 then unhold st v));
  ignore (emit_raw st (Isa.Jr (dist_exn st vk_retaddr)))

let emit_block st (plans : block_plan array) (edge_env : (int, env_snapshot) Hashtbl.t)
    (bi : int) =
  let b = st.cfg.Analysis.blocks.(bi) in
  let plan = plans.(bi) in
  let n_blocks = Array.length st.cfg.Analysis.blocks in
  st.cur_block <- bi;
  push st (Assembler.Asm.Label (label_of st b.Ir.bid));
  (* install the entry environment *)
  (match Hashtbl.find_opt st.merge_frames bi with
   | Some frame -> install_merge_env st frame
   | None ->
     if bi > 0 then
       (match Hashtbl.find_opt edge_env bi with
        | Some snap -> install_snapshot st snap
        | None ->
          fail "%s: block bb%d has no incoming environment" st.func.Ir.name
            b.Ir.bid));
  (* per-block use counts: body + terminator + tail *)
  let remaining = Hashtbl.create 32 in
  let bump v =
    Hashtbl.replace remaining v
      (1 + Option.value ~default:0 (Hashtbl.find_opt remaining v))
  in
  List.iter (fun (_, inst) -> List.iter bump (Ir.inst_uses inst)) plan.body;
  List.iter bump (Ir.term_uses b.Ir.term);
  List.iter
    (fun (_, slot) ->
       match slot with
       | Slot_rmov v when v >= 0 -> bump v
       | Slot_sunk (_, inst) -> List.iter bump (Ir.inst_uses inst)
       | _ -> ())
    plan.tail;
  st.remaining <- remaining;
  st.live_out <- st.lv.Analysis.live_out.(bi);
  (* body *)
  let slot_of w =
    match Hashtbl.find_opt st.spill_slot w with
    | Some off -> off
    | None -> fail "%s: value %d has no spill slot" st.func.Ir.name w
  in
  List.iter
    (fun (v, inst) ->
       match inst with
       | Ir.Call (fname, args) ->
         let spills =
           Option.value ~default:[] (Hashtbl.find_opt plan.call_spills v)
         in
         emit_call st v fname args ~spills ~slot_of
       | _ -> emit_ir_inst st v inst ~slot_of)
    plan.body;
  (* terminator *)
  let is_next ti = ti = bi + 1 && ti < n_blocks in
  let lbl ti = label_of st st.cfg.Analysis.blocks.(ti).Ir.bid in
  match b.Ir.term with
  | Ir.Ret op -> emit_ret st op
  | Ir.Br t ->
    let ti = Analysis.block_index st.cfg t in
    if Hashtbl.mem st.merge_frames ti then
      emit_tail st plan ~succ_label:(lbl ti) ~fallthrough:(is_next ti)
    else begin
      if not (is_next ti) then begin
        ensure_headroom st 1;
        ignore (emit_raw st (Isa.J (lbl ti)))
      end;
      Hashtbl.replace edge_env ti (snapshot st)
    end
  | Ir.Cond_br (c, t1, t2) ->
    (match c with Ir.Val w -> ensure_positioned st w | Ir.Const _ -> ());
    let cv = operand_value st c in
    (* NOT consumed yet: the headroom refresh below must still count the
       condition as live, or its RMOV batch strands it out of range.  A
       constant condition resolves to a pseudo temp, which only the held
       list keeps visible to that refresh. *)
    hold st cv;
    let i1 = Analysis.block_index st.cfg t1 in
    let i2 = Analysis.block_index st.cfg t2 in
    if Hashtbl.mem st.merge_frames i1 || Hashtbl.mem st.merge_frames i2 then
      fail "%s: conditional branch into merge block (critical edge not split)"
        st.func.Ir.name;
    ensure_headroom st 2;
    (if is_next i1 then begin
       (* invert: branch to t2 when the condition is zero *)
       ignore (emit_raw st (Isa.Bez (dist_exn st cv, lbl i2)));
       Hashtbl.replace edge_env i2 (snapshot st);
       Hashtbl.replace edge_env i1 (snapshot st)
     end
     else begin
       ignore (emit_raw st (Isa.Bnz (dist_exn st cv, lbl i1)));
       Hashtbl.replace edge_env i1 (snapshot st);
       if not (is_next i2) then ignore (emit_raw st (Isa.J (lbl i2)));
       Hashtbl.replace edge_env i2 (snapshot st)
     end);
    unhold st cv;
    consume st cv

(* ---------- function emission ---------- *)

let emit_function ~(config : config) ~globals (f : Ir.func) : item list =
  localize_addresses f;
  Ssa_ir.Passes.dce f;  (* drop now-unused shared originals *)
  Ssa_ir.Passes.split_critical_edges f;
  Ssa_ir.Passes.layout_rpo f;
  Ssa_ir.Analysis.validate f;
  let cfg = Analysis.build f in
  let lv = Analysis.liveness cfg in
  let n = Array.length cfg.Analysis.blocks in
  let has_calls =
    List.exists
      (fun b ->
         List.exists
           (fun (_, i) -> match i with Ir.Call _ -> true | _ -> false)
           b.Ir.insts)
      f.Ir.blocks
  in
  let n_merges =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if List.length cfg.Analysis.preds.(i) > 1 then incr count
    done;
    !count
  in
  (* RE+ heuristic (Fig. 10(c)): relay the return address through the stack
     whenever frames exist that would otherwise carry it. *)
  let ra_spilled = config.level = Re_plus && n_merges > 0 in
  let needs_ra_slot = ra_spilled || has_calls in
  (* spill slot assignment starts after the IR-level frame area, rounded
     up to a word boundary: slots hold words and LD/ST fault on unaligned
     addresses *)
  let next_slot = ref ((f.Ir.frame_bytes + 3) land lnot 3) in
  let alloc_slot () =
    let off = !next_slot in
    next_slot := off + 4;
    off
  in
  let ra_slot = if needs_ra_slot then Some (alloc_slot ()) else None in
  let idom_arr = Analysis.idom cfg in
  let spill_slot = Hashtbl.create 16 in
  let def_of = Hashtbl.create 64 in
  List.iter
    (fun b -> List.iter (fun (v, inst) -> Hashtbl.replace def_of v inst) b.Ir.insts)
    f.Ir.blocks;
  (match ra_slot with
   | Some off -> Hashtbl.replace spill_slot vk_retaddr off
   | None -> ());
  let st =
    { cfg; lv; cfgc = config; func = f; globals;
      items = []; idx = 0;
      pos = Hashtbl.create 64;
      tmp = -10;
      remaining = Hashtbl.create 1;
      live_out = IntSet.empty;
      ra_live = not ra_spilled;
      fb_live = false; (* set after frame size is known *)
      spill_slot;
      next_slot = 0;       (* set below once static slots are assigned *)
      has_frame = false;
      spilling = false;
      held = [];
      def_of;
      in_slot = Hashtbl.create 16;
      idom = idom_arr;
      cur_block = 0;
      ra_slot;
      frame_size = 0;  (* patched below via a second state *)
      merge_frames = Hashtbl.create 8 }
  in
  (* merge frames: pseudo values first, then IR values in id order *)
  let fb_carried = config.level = Raw in
  for i = 0 to n - 1 do
    if List.length cfg.Analysis.preds.(i) > 1 then begin
      let irs = IntSet.elements (Analysis.entry_frame lv i) in
      let pseudos =
        (if st.ra_live then [ vk_retaddr ] else [])
        @ (if fb_carried then [ vk_frame_base ] else [])
      in
      Hashtbl.replace st.merge_frames i (pseudos @ irs)
    end
  done;
  (* phase A: plan blocks, then allocate call-crossing spill slots *)
  let plans =
    Array.init n (fun i -> plan_block st cfg.Analysis.blocks.(i))
  in
  Array.iteri
    (fun i plan -> compute_call_spills st cfg.Analysis.blocks.(i) plan)
    plans;
  Array.iter
    (fun plan ->
       Hashtbl.iter
         (fun _ spills ->
            List.iter
              (fun w ->
                 let remat =
                   config.level = Re_plus
                   && (match Hashtbl.find_opt def_of w with
                       | Some (Ir.Global_addr _) | Some (Ir.Frame_addr _) -> true
                       | _ -> false)
                 in
                 if (not remat) && not (Hashtbl.mem spill_slot w) then
                   Hashtbl.replace spill_slot w (alloc_slot ()))
              spills)
         plan.call_spills)
    plans;
  let frame_size = (!next_slot + 7) land lnot 7 in
  (* A frame is emitted when there are static slots/locals, or when the
     function risks register-pressure spills: the worst frame tail needs
     roughly 2*|frame| addressable distances. *)
  let max_frame =
    Hashtbl.fold (fun _ fr acc -> max acc (List.length fr)) st.merge_frames 0
  in
  let pressure_risk = (2 * max_frame) + 8 > config.max_dist in
  let has_frame = frame_size > 0 || pressure_risk in
  let st = { st with frame_size; fb_live = fb_carried && has_frame } in
  st.has_frame <- has_frame;
  st.next_slot <- !next_slot;
  (* The frames were planned assuming the frame base is carried (RAW); if
     the function turned out frameless, drop it and re-plan the tails. *)
  let plans =
    if fb_carried && not has_frame then begin
      Hashtbl.iter
        (fun i frame ->
           Hashtbl.replace st.merge_frames i
             (List.filter (fun v -> v <> vk_frame_base) frame))
        (Hashtbl.copy st.merge_frames);
      let plans =
        Array.init n (fun i -> plan_block st cfg.Analysis.blocks.(i))
      in
      Array.iteri
        (fun i plan -> compute_call_spills st cfg.Analysis.blocks.(i) plan)
        plans;
      plans
    end
    else plans
  in
  (* phase B: emission *)
  push st (Assembler.Asm.Label (func_label f.Ir.name));
  (* entry environment: JAL at distance 1, arg_{n-1} at 2, ..., arg_0 at
     nparams+1 (Fig. 5) *)
  define st vk_retaddr (st.idx - 1);
  for p = 0 to f.Ir.nparams - 1 do
    define st p (st.idx - 1 - (f.Ir.nparams - p))
  done;
  if has_frame then begin
    let i = emit_raw st (Isa.Spadd spadd_alloc_marker) in
    define st vk_frame_base i
  end;
  if ra_spilled then begin
    (match st.ra_slot with
     | Some off -> emit_store_to_frame st ~value_key:vk_retaddr ~offset:off
     | None -> assert false);
    st.ra_live <- false;
    Hashtbl.remove st.pos vk_retaddr
  end;
  let edge_env = Hashtbl.create 16 in
  (* the entry block keeps the prologue environment *)
  Hashtbl.replace edge_env 0 (snapshot st);
  for i = 0 to n - 1 do
    emit_block st plans edge_env i
  done;
  (* the frame may have grown through pressure spills: patch the
     prologue/epilogue placeholders with the final size *)
  let final_size = (st.next_slot + 7) land lnot 7 in
  st.frame_size <- final_size;
  List.rev_map
    (fun item ->
       match item with
       | Assembler.Asm.Insn (Isa.Spadd m) when m = spadd_alloc_marker ->
         Assembler.Asm.Insn (Isa.Spadd (-final_size))
       | Assembler.Asm.Insn (Isa.Spadd m) when m = spadd_free_marker ->
         Assembler.Asm.Insn (Isa.Spadd final_size)
       | item -> item)
    st.items

(* ---------- program compilation ---------- *)

(* [layout_globals data] assigns each data symbol its absolute address,
   mirroring the .data section emission order. *)
let layout_globals (data : Ir.data_def list) : (string, int) Hashtbl.t =
  let table = Hashtbl.create 16 in
  let cursor = ref Assembler.Layout.data_base in
  List.iter
    (fun (d : Ir.data_def) ->
       Hashtbl.replace table d.Ir.sym !cursor;
       cursor := !cursor + (4 * List.length d.Ir.words) + d.Ir.extra_bytes)
    data;
  table

(* [compile ?config program] generates the complete assembly item list:
   startup stub, all functions, and the data section. *)
let compile ?(config = default_config) (p : Ir.program) : item list =
  let globals = layout_globals p.Ir.data in
  let start =
    [ Assembler.Asm.Section Assembler.Asm.Text;
      Assembler.Asm.Label "_start";
      Assembler.Asm.Insn (Isa.Jal (func_label "main"));
      Assembler.Asm.Insn Isa.Halt ]
  in
  let funcs =
    List.concat_map (fun f -> emit_function ~config ~globals f) p.Ir.funcs
  in
  let data =
    Assembler.Asm.Section Assembler.Asm.Data
    :: List.concat_map
      (fun (d : Ir.data_def) ->
         (Assembler.Asm.Label d.Ir.sym
          :: List.map (fun w -> Assembler.Asm.Word w) d.Ir.words)
         @ (if d.Ir.extra_bytes > 0 then [ Assembler.Asm.Space d.Ir.extra_bytes ]
            else []))
      p.Ir.data
  in
  start @ funcs @ data

(* Static instruction-mix statistics over generated items (Fig. 15 input). *)
type stats = {
  total : int;
  rmov : int;
  nop : int;
  alu : int;
  load : int;
  store : int;
  ctrl : int;
}

let stats_of_items (items : item list) : stats =
  List.fold_left
    (fun acc it ->
       match it with
       | Assembler.Asm.Insn insn ->
         let acc = { acc with total = acc.total + 1 } in
         (match Isa.kind insn with
          | Isa.Krmov -> { acc with rmov = acc.rmov + 1 }
          | Isa.Knop -> { acc with nop = acc.nop + 1 }
          | Isa.Kload -> { acc with load = acc.load + 1 }
          | Isa.Kstore -> { acc with store = acc.store + 1 }
          | Isa.Kbranch | Isa.Kjump -> { acc with ctrl = acc.ctrl + 1 }
          | Isa.Kalu | Isa.Kmul | Isa.Kdiv | Isa.Khalt ->
            { acc with alu = acc.alu + 1 })
       | _ -> acc)
    { total = 0; rmov = 0; nop = 0; alu = 0; load = 0; store = 0; ctrl = 0 }
    items
