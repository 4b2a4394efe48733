(* RV32IM code generation: the superscalar baseline's compiler back end
   (the paper uses clang/LLVM with the lowRISC RISC-V back end; Section V-A).

   Pipeline: critical-edge splitting -> phi elimination (parallel copies at
   predecessor tails) -> instruction selection to virtual-register RV32IM
   with compare-and-branch fusion -> liveness-based linear-scan register
   allocation (callee-saved registers for call-crossing values, spilling
   with reserved scratch registers) -> prologue/epilogue insertion. *)

module Isa = Riscv_isa.Isa
module Ir = Ssa_ir.Ir
module Analysis = Ssa_ir.Analysis
module IntSet = Analysis.IntSet

let fail fmt =
  Diag.error ~context:[ ("target", "riscv") ] Diag.Codegen_error fmt

type item = string Isa.t Assembler.Asm.item

(* Virtual registers start above the architectural file. *)
let first_vreg = 32
let is_vreg r = r >= first_vreg

(* Register pools (ABI): t0-t4 caller-saved, s0-s11 callee-saved.
   t5/t6 (x30/x31) are reserved as spill scratch; a0-a7 are reserved for
   argument/return shuffling; ra/sp/gp/tp are never allocated. *)
let caller_pool = [ 5; 6; 7; 28; 29 ]
let callee_pool = [ 8; 9; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ]
let scratch1 = 30
let scratch2 = 31

let fits_imm12 (v : int32) = v >= -2048l && v <= 2047l

(* ---------- virtual-register code ---------- *)

type vblock = {
  label : string;
  mutable code : string Isa.t list;   (* body, no terminator *)
  mutable term : string Isa.t list;   (* 0-2 control transfer instructions *)
  mutable succ_labels : string list;  (* for liveness *)
}

type vfunc = {
  fname : string;
  mutable vblocks : vblock list;
  mutable next_vreg : int;
  frame_bytes : int;                  (* IR-level locals *)
  ret_label : string;
}

let fresh_vreg vf =
  let v = vf.next_vreg in
  vf.next_vreg <- v + 1;
  v

(* ---------- instruction selection ---------- *)

type fctx = {
  vf : vfunc;
  globals : (string, int) Hashtbl.t;
  value_reg : (Ir.value, int) Hashtbl.t;   (* IR value -> vreg *)
  mutable cur : vblock;
}

let vreg_of ctx (v : Ir.value) : int =
  match Hashtbl.find_opt ctx.value_reg v with
  | Some r -> r
  | None ->
    let r = fresh_vreg ctx.vf in
    Hashtbl.replace ctx.value_reg v r;
    r

let emitv ctx insn = ctx.cur.code <- insn :: ctx.cur.code

(* Load a 32-bit constant into [rd]. *)
let emit_li ctx rd (c : int32) =
  if fits_imm12 c then emitv ctx (Isa.Alui (Isa.Addi, rd, 0, Int32.to_int c))
  else begin
    let lo = Int32.of_int ((Int32.to_int c + 2048) land 0xFFF - 2048) in
    let hi = Int32.shift_right_logical (Int32.sub c lo) 12 in
    let hi = Int32.logand hi 0xFFFFFl in
    emitv ctx (Isa.Lui (rd, hi));
    if lo <> 0l then emitv ctx (Isa.Alui (Isa.Addi, rd, rd, Int32.to_int lo))
  end

(* Operand into a register (materializing constants into a fresh vreg). *)
let reg_of_operand ctx (op : Ir.operand) : int =
  match op with
  | Ir.Val v -> vreg_of ctx v
  | Ir.Const 0l -> 0
  | Ir.Const c ->
    let r = fresh_vreg ctx.vf in
    emit_li ctx r c;
    r

let alui_of_binop : Ir.binop -> Isa.alui_op option = function
  | Ir.Add -> Some Isa.Addi
  | Ir.And -> Some Isa.Andi
  | Ir.Or -> Some Isa.Ori
  | Ir.Xor -> Some Isa.Xori
  | Ir.Shl -> Some Isa.Slli
  | Ir.Lshr -> Some Isa.Srli
  | Ir.Ashr -> Some Isa.Srai
  | _ -> None

let alu_of_binop : Ir.binop -> Isa.alu_op = function
  | Ir.Add -> Isa.Add | Ir.Sub -> Isa.Sub | Ir.Mul -> Isa.Mul
  | Ir.Div -> Isa.Div | Ir.Divu -> Isa.Divu | Ir.Rem -> Isa.Rem
  | Ir.Remu -> Isa.Remu | Ir.And -> Isa.And | Ir.Or -> Isa.Or
  | Ir.Xor -> Isa.Xor | Ir.Shl -> Isa.Sll | Ir.Lshr -> Isa.Srl
  | Ir.Ashr -> Isa.Sra

let commutative : Ir.binop -> bool = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

(* Shift-by-constant is defined modulo 32 (eval_alu reads only the low
   five bits); the encoder rejects anything outside [0,31], so reduce the
   immediate before selecting the register-immediate form. *)
let norm_binop_imm (op : Ir.binop) (c : int32) : int32 =
  match op with
  | Ir.Shl | Ir.Lshr | Ir.Ashr -> Int32.logand c 31l
  | _ -> c

let sel_binop ctx rd op (a : Ir.operand) (b : Ir.operand) =
  let imm_ok c =
    match alui_of_binop op with
    | Some _ -> fits_imm12 (norm_binop_imm op c)
    | None -> op = Ir.Sub && fits_imm12 (Int32.neg c)
  in
  match a, b with
  | Ir.Val va, Ir.Const c when imm_ok c ->
    (match alui_of_binop op with
     | Some aop ->
       emitv ctx
         (Isa.Alui (aop, rd, vreg_of ctx va, Int32.to_int (norm_binop_imm op c)))
     | None ->
       emitv ctx
         (Isa.Alui (Isa.Addi, rd, vreg_of ctx va, -Int32.to_int c)))
  | Ir.Const c, Ir.Val vb when commutative op && imm_ok c ->
    (match alui_of_binop op with
     | Some aop -> emitv ctx (Isa.Alui (aop, rd, vreg_of ctx vb, Int32.to_int c))
     | None -> assert false)
  | _ ->
    let ra = reg_of_operand ctx a in
    let rb = reg_of_operand ctx b in
    emitv ctx (Isa.Alu (alu_of_binop op, rd, ra, rb))

(* Comparison producing 0/1 in [rd] (used when the result is not fused into
   a branch). *)
let sel_cmp ctx rd op (a : Ir.operand) (b : Ir.operand) =
  let ra () = reg_of_operand ctx a in
  let rb () = reg_of_operand ctx b in
  match op with
  | Ir.Lt ->
    (match b with
     | Ir.Const c when fits_imm12 c ->
       emitv ctx (Isa.Alui (Isa.Slti, rd, ra (), Int32.to_int c))
     | _ ->
       let x = ra () in
       emitv ctx (Isa.Alu (Isa.Slt, rd, x, rb ())))
  | Ir.Ltu ->
    (match b with
     | Ir.Const c when fits_imm12 c ->
       emitv ctx (Isa.Alui (Isa.Sltiu, rd, ra (), Int32.to_int c))
     | _ ->
       let x = ra () in
       emitv ctx (Isa.Alu (Isa.Sltu, rd, x, rb ())))
  | Ir.Gt ->
    let x = ra () in
    let y = rb () in
    emitv ctx (Isa.Alu (Isa.Slt, rd, y, x))
  | Ir.Ge ->
    let x = ra () in
    let y = rb () in
    emitv ctx (Isa.Alu (Isa.Slt, rd, x, y));
    emitv ctx (Isa.Alui (Isa.Xori, rd, rd, 1))
  | Ir.Geu ->
    let x = ra () in
    let y = rb () in
    emitv ctx (Isa.Alu (Isa.Sltu, rd, x, y));
    emitv ctx (Isa.Alui (Isa.Xori, rd, rd, 1))
  | Ir.Le ->
    let x = ra () in
    let y = rb () in
    emitv ctx (Isa.Alu (Isa.Slt, rd, y, x));
    emitv ctx (Isa.Alui (Isa.Xori, rd, rd, 1))
  | Ir.Eq | Ir.Ne ->
    let diff =
      match a, b with
      | x, Ir.Const 0l | Ir.Const 0l, x -> reg_of_operand ctx x
      | _ ->
        let t = fresh_vreg ctx.vf in
        let x = ra () in
        emitv ctx (Isa.Alu (Isa.Xor, t, x, rb ()));
        t
    in
    if op = Ir.Eq then emitv ctx (Isa.Alui (Isa.Sltiu, rd, diff, 1))
    else emitv ctx (Isa.Alu (Isa.Sltu, rd, 0, diff))

(* Branch condition for a fused compare-and-branch. *)
let fused_branch op (ra : int) (rb : int) ~(invert : bool) :
  Isa.branch_cond * int * int =
  let c, x, y =
    match op with
    | Ir.Eq -> (Isa.Beq, ra, rb)
    | Ir.Ne -> (Isa.Bne, ra, rb)
    | Ir.Lt -> (Isa.Blt, ra, rb)
    | Ir.Ge -> (Isa.Bge, ra, rb)
    | Ir.Ltu -> (Isa.Bltu, ra, rb)
    | Ir.Geu -> (Isa.Bgeu, ra, rb)
    | Ir.Gt -> (Isa.Blt, rb, ra)
    | Ir.Le -> (Isa.Bge, rb, ra)
  in
  if invert then
    let c' =
      match c with
      | Isa.Beq -> Isa.Bne | Isa.Bne -> Isa.Beq | Isa.Blt -> Isa.Bge
      | Isa.Bge -> Isa.Blt | Isa.Bltu -> Isa.Bgeu | Isa.Bgeu -> Isa.Bltu
    in
    (c', x, y)
  else (c, x, y)

(* ---------- instruction selection over a function ---------- *)

let block_label fname bid = Printf.sprintf ".L%s_%d" fname bid
let func_label name = "f_" ^ name
let ret_label fname = Printf.sprintf ".L%s_ret" fname

(* IR values with exactly one use whose defining Cmp sits in the same block
   as the Cond_br consuming it can fuse into a compare-and-branch. *)
let fusable_cmps (f : Ir.func) : (Ir.value, Ir.cmpop * Ir.operand * Ir.operand) Hashtbl.t =
  let use_count = Hashtbl.create 64 in
  let bump v =
    Hashtbl.replace use_count v
      (1 + Option.value ~default:0 (Hashtbl.find_opt use_count v))
  in
  List.iter
    (fun b ->
       List.iter (fun (_, i) -> List.iter bump (Ir.inst_uses i)) b.Ir.insts;
       List.iter bump (Ir.term_uses b.Ir.term))
    f.Ir.blocks;
  let table = Hashtbl.create 8 in
  List.iter
    (fun b ->
       match b.Ir.term with
       | Ir.Cond_br (Ir.Val c, _, _) when Hashtbl.find_opt use_count c = Some 1 ->
         List.iter
           (fun (v, inst) ->
              match inst with
              | Ir.Cmp (op, a, x) when v = c -> Hashtbl.replace table c (op, a, x)
              | _ -> ())
           b.Ir.insts
       | _ -> ())
    f.Ir.blocks;
  table

(* Sequentialize a parallel copy (phi moves), breaking cycles with a fresh
   temporary. *)
let sequentialize_moves vf (moves : (int * [ `Reg of int | `Cst of int32 ]) list) :
  string Isa.t list =
  let out = ref [] in
  let emit i = out := i :: !out in
  let pending = ref (List.filter (fun (d, s) -> s <> `Reg d) moves) in
  let src_regs () =
    List.filter_map (fun (_, s) -> match s with `Reg r -> Some r | _ -> None)
      !pending
  in
  while !pending <> [] do
    match
      List.find_opt (fun (d, _) -> not (List.mem d (src_regs ()))) !pending
    with
    | Some ((d, s) as m) ->
      (match s with
       | `Reg r -> emit (Isa.Alui (Isa.Addi, d, r, 0))
       | `Cst c ->
         if fits_imm12 c then emit (Isa.Alui (Isa.Addi, d, 0, Int32.to_int c))
         else begin
           let lo = Int32.of_int ((Int32.to_int c + 2048) land 0xFFF - 2048) in
           let hi = Int32.logand (Int32.shift_right_logical (Int32.sub c lo) 12) 0xFFFFFl in
           emit (Isa.Lui (d, hi));
           if lo <> 0l then emit (Isa.Alui (Isa.Addi, d, d, Int32.to_int lo))
         end);
      pending := List.filter (fun m' -> m' != m) !pending
    | None ->
      (* a register cycle: move one source aside into a fresh temp *)
      (match !pending with
       | (_, `Reg r) :: _ ->
         let t = fresh_vreg vf in
         emit (Isa.Alui (Isa.Addi, t, r, 0));
         pending :=
           List.map
             (fun (d, s) -> if s = `Reg r then (d, `Reg t) else (d, s))
             !pending
       | _ -> assert false)
  done;
  List.rev !out

let max_args = 8

let sel_inst ctx fusable (v : Ir.value) (inst : Ir.inst) =
  match inst with
  | Ir.Phi _ -> ()
  | Ir.Cmp (_, _, _) when Hashtbl.mem fusable v -> ()
  | Ir.Bin (op, a, b) -> sel_binop ctx (vreg_of ctx v) op a b
  | Ir.Cmp (op, a, b) -> sel_cmp ctx (vreg_of ctx v) op a b
  | Ir.Load (addr, off) ->
    (match addr with
     | Ir.Const c ->
       let t = fresh_vreg ctx.vf in
       emit_li ctx t (Int32.add c (Int32.of_int off));
       emitv ctx (Isa.Lw (vreg_of ctx v, t, 0))
     | Ir.Val a ->
       if off >= -2048 && off <= 2047 then
         emitv ctx (Isa.Lw (vreg_of ctx v, vreg_of ctx a, off))
       else begin
         let t = fresh_vreg ctx.vf in
         emitv ctx (Isa.Alui (Isa.Addi, t, vreg_of ctx a, off));
         emitv ctx (Isa.Lw (vreg_of ctx v, t, 0))
       end)
  | Ir.Store (x, addr, off) ->
    let rx = reg_of_operand ctx x in
    (match addr with
     | Ir.Const c ->
       let t = fresh_vreg ctx.vf in
       emit_li ctx t (Int32.add c (Int32.of_int off));
       emitv ctx (Isa.Sw (rx, t, 0))
     | Ir.Val a ->
       if off >= -2048 && off <= 2047 then
         emitv ctx (Isa.Sw (rx, vreg_of ctx a, off))
       else begin
         let t = fresh_vreg ctx.vf in
         emitv ctx (Isa.Alui (Isa.Addi, t, vreg_of ctx a, off));
         emitv ctx (Isa.Sw (rx, t, 0))
       end);
    (* the IR store "returns" the stored value: alias the registers *)
    Hashtbl.replace ctx.value_reg v rx
  | Ir.Call (fname, args) ->
    if List.length args > max_args then
      fail "%s: call %s with more than %d register arguments" ctx.vf.fname
        fname max_args;
    List.iteri
      (fun i a ->
         let ai = 10 + i in
         match a with
         | Ir.Const c -> emit_li ctx ai c
         | Ir.Val w -> emitv ctx (Isa.Alui (Isa.Addi, ai, vreg_of ctx w, 0)))
      args;
    emitv ctx (Isa.Jal (1, func_label fname));
    emitv ctx (Isa.Alui (Isa.Addi, vreg_of ctx v, 10, 0))
  | Ir.Frame_addr off ->
    emitv ctx (Isa.Alui (Isa.Addi, vreg_of ctx v, 2, off))
  | Ir.Global_addr sym ->
    (match Hashtbl.find_opt ctx.globals sym with
     | Some addr -> emit_li ctx (vreg_of ctx v) (Int32.of_int addr)
     | None -> fail "%s: unknown global %s" ctx.vf.fname sym)

(* Select a whole function into virtual-register blocks. *)
let select_function ~globals (f : Ir.func) : vfunc =
  let vf =
    { fname = f.Ir.name;
      vblocks = [];
      next_vreg = first_vreg + f.Ir.nvalues;
      frame_bytes = f.Ir.frame_bytes;
      ret_label = ret_label f.Ir.name }
  in
  let fusable = fusable_cmps f in
  let blocks_by_label = Hashtbl.create 16 in
  let ctx =
    { vf; globals;
      value_reg = Hashtbl.create 64;
      cur = { label = ""; code = []; term = []; succ_labels = [] } }
  in
  (* params: IR value i <-> vreg first_vreg+i; copied from a_i on entry *)
  for p = 0 to f.Ir.nparams - 1 do
    Hashtbl.replace ctx.value_reg p (first_vreg + p)
  done;
  List.iteri
    (fun i b ->
       let vb =
         { label = block_label f.Ir.name b.Ir.bid;
           code = []; term = []; succ_labels = [] }
       in
       Hashtbl.replace blocks_by_label vb.label vb;
       vf.vblocks <- vf.vblocks @ [ vb ];
       ctx.cur <- vb;
       if i = 0 then
         for p = 0 to f.Ir.nparams - 1 do
           emitv ctx (Isa.Alui (Isa.Addi, first_vreg + p, 10 + p, 0))
         done;
       List.iter (fun (v, inst) -> sel_inst ctx fusable v inst) b.Ir.insts;
       (match b.Ir.term with
        | Ir.Ret op ->
          (match op with
           | Ir.Const c -> emit_li ctx 10 c
           | Ir.Val v -> emitv ctx (Isa.Alui (Isa.Addi, 10, vreg_of ctx v, 0)));
          vb.term <- [ Isa.Jal (0, vf.ret_label) ];
          vb.succ_labels <- []
        | Ir.Br t ->
          vb.term <- [ Isa.Jal (0, block_label f.Ir.name t) ];
          vb.succ_labels <- [ block_label f.Ir.name t ]
        | Ir.Cond_br (c, t1, t2) ->
          let l1 = block_label f.Ir.name t1 in
          let l2 = block_label f.Ir.name t2 in
          (match c with
           | Ir.Val cv when Hashtbl.mem fusable cv ->
             let op, a, x = Hashtbl.find fusable cv in
             let ra = reg_of_operand ctx a in
             let rx = reg_of_operand ctx x in
             let cond, r1, r2 = fused_branch op ra rx ~invert:false in
             vb.term <- [ Isa.Branch (cond, r1, r2, l1); Isa.Jal (0, l2) ]
           | _ ->
             let rc = reg_of_operand ctx c in
             vb.term <- [ Isa.Branch (Isa.Bne, rc, 0, l1); Isa.Jal (0, l2) ]);
          vb.succ_labels <- [ l1; l2 ]))
    f.Ir.blocks;
  (* phi elimination: parallel copies at each predecessor's tail *)
  List.iter
    (fun b ->
       let phis =
         List.filter_map
           (fun (v, inst) ->
              match inst with Ir.Phi arms -> Some (v, arms) | _ -> None)
           b.Ir.insts
       in
       if phis <> [] then begin
         (* group moves per predecessor *)
         let preds = List.map fst (snd (List.hd phis)) in
         List.iter
           (fun pred_bid ->
              let moves =
                List.map
                  (fun (v, arms) ->
                     let src =
                       match List.assoc pred_bid arms with
                       | Ir.Val u -> `Reg (vreg_of ctx u)
                       | Ir.Const c -> `Cst c
                     in
                     (vreg_of ctx v, src))
                  phis
              in
              let code = sequentialize_moves vf moves in
              let pb =
                Hashtbl.find blocks_by_label (block_label f.Ir.name pred_bid)
              in
              (* pb.code is in reverse order at this point; the moves must
                 land at the end of the block body *)
              pb.code <- List.rev_append code pb.code)
           preds
       end)
    f.Ir.blocks;
  (* blocks collected code in reverse *)
  List.iter (fun vb -> vb.code <- List.rev vb.code) vf.vblocks;
  vf

(* ---------- liveness and live intervals over virtual registers ---------- *)

let vinst_uses (i : string Isa.t) = List.filter is_vreg (Isa.sources i)
let vinst_def (i : string Isa.t) =
  match Isa.dest i with Some r when is_vreg r -> Some r | _ -> None

let is_call (i : string Isa.t) =
  match i with Isa.Jal (1, _) | Isa.Jalr (1, _, _) -> true | _ -> false

type interval = {
  vreg : int;
  mutable istart : int;
  mutable iend : int;
  mutable crosses_call : bool;
}

(* Compute per-vreg live intervals (single conservative range per vreg,
   extended over blocks where the vreg is live-in/out) plus call-crossing
   flags. *)
let live_intervals (vf : vfunc) : interval list =
  let blocks = Array.of_list vf.vblocks in
  let n = Array.length blocks in
  let by_label = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.replace by_label b.label i) blocks;
  (* block-level use/def *)
  let uses = Array.make n IntSet.empty in
  let defs = Array.make n IntSet.empty in
  Array.iteri
    (fun i b ->
       List.iter
         (fun insn ->
            List.iter
              (fun u ->
                 if not (IntSet.mem u defs.(i)) then uses.(i) <- IntSet.add u uses.(i))
              (vinst_uses insn);
            match vinst_def insn with
            | Some d -> defs.(i) <- IntSet.add d defs.(i)
            | None -> ())
         (b.code @ b.term))
    blocks;
  let live_in = Array.make n IntSet.empty in
  let live_out = Array.make n IntSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc l ->
             match Hashtbl.find_opt by_label l with
             | Some s -> IntSet.union acc live_in.(s)
             | None -> acc)
          IntSet.empty blocks.(i).succ_labels
      in
      let inn = IntSet.union uses.(i) (IntSet.diff out defs.(i)) in
      if not (IntSet.equal out live_out.(i)) || not (IntSet.equal inn live_in.(i))
      then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  (* positions *)
  let intervals : (int, interval) Hashtbl.t = Hashtbl.create 64 in
  let touch v p =
    match Hashtbl.find_opt intervals v with
    | Some iv ->
      if p < iv.istart then iv.istart <- p;
      if p > iv.iend then iv.iend <- p
    | None ->
      Hashtbl.replace intervals v { vreg = v; istart = p; iend = p; crosses_call = false }
  in
  let pos = ref 0 in
  let call_positions = ref [] in
  Array.iteri
    (fun i b ->
       let bstart = !pos in
       List.iter
         (fun insn ->
            List.iter (fun u -> touch u !pos) (vinst_uses insn);
            (match vinst_def insn with Some d -> touch d !pos | None -> ());
            if is_call insn then call_positions := !pos :: !call_positions;
            incr pos)
         (b.code @ b.term);
       let bend = !pos - 1 in
       IntSet.iter (fun v -> touch v bstart) live_in.(i);
       IntSet.iter (fun v -> touch v (max bstart bend)) live_out.(i))
    blocks;
  let calls = List.sort compare !call_positions in
  let result = Hashtbl.fold (fun _ iv acc -> iv :: acc) intervals [] in
  List.iter
    (fun iv ->
       iv.crosses_call <-
         List.exists (fun c -> iv.istart < c && c < iv.iend) calls)
    result;
  List.sort (fun a b -> compare a.istart b.istart) result

(* ---------- linear-scan allocation ---------- *)

type location = Reg of int | Slot of int   (* stack slot index *)

type alloc_result = {
  location : (int, location) Hashtbl.t;    (* vreg -> location *)
  n_slots : int;
  used_callee : int list;                  (* callee-saved registers used *)
}

let linear_scan (intervals : interval list) : alloc_result =
  let location = Hashtbl.create 64 in
  let free_caller = ref caller_pool in
  let free_callee = ref callee_pool in
  let active : interval list ref = ref [] in (* sorted by iend *)
  let used_callee = ref [] in
  let n_slots = ref 0 in
  let release r =
    if List.mem r caller_pool then free_caller := r :: !free_caller
    else free_callee := r :: !free_callee
  in
  let alloc_slot () =
    let s = !n_slots in
    incr n_slots;
    s
  in
  let expire current_start =
    let expired, still =
      List.partition (fun iv -> iv.iend < current_start) !active
    in
    List.iter
      (fun iv ->
         match Hashtbl.find_opt location iv.vreg with
         | Some (Reg r) -> release r
         | _ -> ())
      expired;
    active := still
  in
  List.iter
    (fun iv ->
       expire iv.istart;
       let take_reg r =
         if List.mem r callee_pool && not (List.mem r !used_callee) then
           used_callee := r :: !used_callee;
         Hashtbl.replace location iv.vreg (Reg r);
         active :=
           List.sort (fun a b -> compare a.iend b.iend) (iv :: !active)
       in
       let try_pools pools =
         let rec go = function
           | [] -> None
           | pool_ref :: rest ->
             (match !pool_ref with
              | r :: more -> pool_ref := more; Some r
              | [] -> go rest)
         in
         go pools
       in
       let pools =
         if iv.crosses_call then [ free_callee ] else [ free_caller; free_callee ]
       in
       match try_pools pools with
       | Some r -> take_reg r
       | None ->
         (* try to evict an active interval ending later whose register we
            are allowed to use *)
         let allowed r =
           if iv.crosses_call then List.mem r callee_pool
           else List.mem r caller_pool || List.mem r callee_pool
         in
         let candidate =
           List.fold_left
             (fun best other ->
                match Hashtbl.find_opt location other.vreg with
                | Some (Reg r) when allowed r && other.iend > iv.iend ->
                  (match best with
                   | Some b when b.iend >= other.iend -> best
                   | _ -> Some other)
                | _ -> best)
             None !active
         in
         (match candidate with
          | Some victim ->
            let r =
              match Hashtbl.find location victim.vreg with
              | Reg r -> r
              | Slot _ -> assert false
            in
            Hashtbl.replace location victim.vreg (Slot (alloc_slot ()));
            active := List.filter (fun o -> o != victim) !active;
            take_reg r
          | None -> Hashtbl.replace location iv.vreg (Slot (alloc_slot ()))))
    intervals;
  { location; n_slots = !n_slots; used_callee = List.sort compare !used_callee }

(* ---------- rewriting and final emission ---------- *)

(* Frame layout (bytes from sp):
     0 .. frame_bytes-1                IR locals (Frame_addr)
     frame_bytes .. +4*n_slots         spill slots
     then saved callee registers, then ra.  16-byte aligned. *)
let emit_function ~globals (f : Ir.func) : item list =
  Ssa_ir.Passes.split_critical_edges f;
  Ssa_ir.Passes.layout_rpo f;
  Ssa_ir.Analysis.validate f;
  let vf = select_function ~globals f in
  let intervals = live_intervals vf in
  let alloc = linear_scan intervals in
  let has_calls =
    List.exists
      (fun b -> List.exists is_call (b.code @ b.term))
      vf.vblocks
  in
  let slot_off s = vf.frame_bytes + (4 * s) in
  let save_base = vf.frame_bytes + (4 * alloc.n_slots) in
  let n_saves = List.length alloc.used_callee + (if has_calls then 1 else 0) in
  let frame = (save_base + (4 * n_saves) + 15) land lnot 15 in
  let items = ref [] in
  let out it = items := it :: !items in
  let outi insn = out (Assembler.Asm.Insn insn) in
  (* map one instruction's registers, inserting spill loads/stores *)
  let loc r : location =
    if is_vreg r then
      match Hashtbl.find_opt alloc.location r with
      | Some l -> l
      | None -> Reg scratch1 (* defined but never used: any register is fine *)
    else Reg r
  in
  let rewrite insn =
    let srcs = Isa.sources insn in
    (* assign scratch registers to spilled sources *)
    let smap = Hashtbl.create 4 in
    let scratches = ref [ scratch1; scratch2 ] in
    List.iter
      (fun r ->
         match loc r with
         | Slot s when not (Hashtbl.mem smap r) ->
           (match !scratches with
            | sc :: rest ->
              scratches := rest;
              Hashtbl.replace smap r sc;
              outi (Isa.Lw (sc, 2, slot_off s))
            | [] -> fail "%s: out of spill scratch registers" vf.fname)
         | _ -> ())
      srcs;
    let map_src r =
      match loc r with
      | Reg pr -> pr
      | Slot _ -> Hashtbl.find smap r
    in
    let dest_slot = ref None in
    let map_dst r =
      match loc r with
      | Reg pr -> pr
      | Slot s -> dest_slot := Some s; scratch1
    in
    let insn' =
      match insn with
      | Isa.Lui (rd, i) -> Isa.Lui (map_dst rd, i)
      | Isa.Auipc (rd, i) -> Isa.Auipc (map_dst rd, i)
      | Isa.Jal (rd, l) -> Isa.Jal ((if is_vreg rd then map_dst rd else rd), l)
      | Isa.Jalr (rd, rs, i) -> Isa.Jalr (map_dst rd, map_src rs, i)
      | Isa.Branch (c, a, b, l) -> Isa.Branch (c, map_src a, map_src b, l)
      | Isa.Lw (rd, rs, i) -> Isa.Lw (map_dst rd, map_src rs, i)
      | Isa.Sw (rs2, rs1, i) -> Isa.Sw (map_src rs2, map_src rs1, i)
      | Isa.Alui (op, rd, rs, i) -> Isa.Alui (op, map_dst rd, map_src rs, i)
      | Isa.Alu (op, rd, rs1, rs2) ->
        Isa.Alu (op, map_dst rd, map_src rs1, map_src rs2)
      | Isa.Ebreak -> Isa.Ebreak
    in
    (* drop no-op moves *)
    (match insn' with
     | Isa.Alui (Isa.Addi, rd, rs, 0) when rd = rs && !dest_slot = None -> ()
     | _ -> outi insn');
    match !dest_slot with
    | Some s -> outi (Isa.Sw (scratch1, 2, slot_off s))
    | None -> ()
  in
  out (Assembler.Asm.Label (func_label vf.fname));
  (* prologue *)
  if frame > 0 then outi (Isa.Alui (Isa.Addi, 2, 2, -frame));
  List.iteri
    (fun i r -> outi (Isa.Sw (r, 2, save_base + (4 * i))))
    alloc.used_callee;
  if has_calls then
    outi (Isa.Sw (1, 2, save_base + (4 * List.length alloc.used_callee)));
  (* body *)
  let blocks = Array.of_list vf.vblocks in
  Array.iteri
    (fun i b ->
       out (Assembler.Asm.Label b.label);
       List.iter rewrite b.code;
       (* peephole: drop a trailing unconditional jump to the next label *)
       let term =
         match List.rev b.term, (if i + 1 < Array.length blocks then Some blocks.(i + 1).label else None) with
         | Isa.Jal (0, l) :: rest, Some next when l = next -> List.rev rest
         | _ -> b.term
       in
       List.iter rewrite term)
    blocks;
  (* epilogue *)
  out (Assembler.Asm.Label vf.ret_label);
  if has_calls then
    outi (Isa.Lw (1, 2, save_base + (4 * List.length alloc.used_callee)));
  List.iteri
    (fun i r -> outi (Isa.Lw (r, 2, save_base + (4 * i))))
    alloc.used_callee;
  if frame > 0 then outi (Isa.Alui (Isa.Addi, 2, 2, frame));
  outi (Isa.Jalr (0, 1, 0));
  List.rev !items

(* ---------- program compilation ---------- *)

let layout_globals (data : Ir.data_def list) : (string, int) Hashtbl.t =
  let table = Hashtbl.create 16 in
  let cursor = ref Assembler.Layout.data_base in
  List.iter
    (fun (d : Ir.data_def) ->
       Hashtbl.replace table d.Ir.sym !cursor;
       cursor := !cursor + (4 * List.length d.Ir.words) + d.Ir.extra_bytes)
    data;
  table

(* [compile p] generates the complete RV32IM assembly item list. *)
let compile (p : Ir.program) : item list =
  let globals = layout_globals p.Ir.data in
  let start =
    [ Assembler.Asm.Section Assembler.Asm.Text;
      Assembler.Asm.Label "_start";
      Assembler.Asm.Insn (Isa.Jal (1, "f_main"));
      Assembler.Asm.Insn Isa.Ebreak ]
  in
  let funcs = List.concat_map (fun f -> emit_function ~globals f) p.Ir.funcs in
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
