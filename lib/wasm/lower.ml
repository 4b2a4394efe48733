(* WASM stack machine -> SSA IR lowering (DESIGN.md §15).

   The operand stack is lowered symbolically: a compile-time stack of
   [Ir.operand]s, so stack traffic costs nothing at run time.  Locals
   use the same Braun et al. SSA construction as the MiniC front-end
   (per-block defs, incomplete phis in unsealed loop headers, sealing,
   then trivial-phi elimination via [Minic.Lower.remove_trivial_phis]).

   Structured control maps onto the CFG as:
   - [block]  -> a join block; every `br` edge and the fall-through edge
     contribute one phi arm when the block has a result
   - [loop]   -> a header block, unsealed until the loop body is fully
     lowered (back edges from `br`/`br_if` land there); the loop exit is
     the plain fall-through, so no join block is needed
   - [return] / `br` to the function frame -> [Ret]
   Code after an unconditional transfer is dead and skipped, matching
   the validator (valid.ml).

   Runtime model shared with MiniC so all six execution paths agree:
   one data symbol "wasm_memory" backs the linear memory, each global
   becomes a one-word symbol "wasm_global_<i>", and the env.putint /
   env.putchar imports lower to the same MMIO stores as the MiniC
   builtins.  Division/remainder follow RV32M (no traps), shifts mask
   the count mod 32, and addresses must be 4-byte aligned. *)

open Ast
module Ir = Ssa_ir.Ir

(* Internal invariant failures only — user-facing rejects happen in
   valid.ml before lowering starts. *)
let bug fmt =
  Format.kasprintf
    (fun s ->
       raise
         (Diag.Error
            (Diag.make
               ~context:[ ("frontend", "wasm"); ("check", "lower") ]
               Diag.Wasm_error s)))
    fmt

let mem_sym = "wasm_memory"
let global_sym i = Printf.sprintf "wasm_global_%d" i
let page_bytes = 65536

(* Back-end load/store immediates are 12-bit; larger static offsets are
   folded into the address. *)
let max_fold_offset = 2040

(* ---------- lowering environment (Braun construction) ---------- *)

type env = {
  func : Ir.func;
  blocks : (Ir.block_id, Ir.block) Hashtbl.t;
  mutable next_bid : int;
  mutable cur : Ir.block;
  mutable terminated : bool;
  (* Braun state; the SSA "variables" are the WASM locals *)
  defs : (int * Ir.block_id, Ir.operand) Hashtbl.t;
  sealed : (Ir.block_id, unit) Hashtbl.t;
  preds : (Ir.block_id, Ir.block_id list) Hashtbl.t;
  incomplete : (Ir.block_id, (int * Ir.value) list) Hashtbl.t;
  (* the symbolic operand stack, top first *)
  mutable stack : Ir.operand list;
}

let new_block env =
  let b = { Ir.bid = env.next_bid; insts = []; term = Ir.Ret (Ir.Const 0l) } in
  env.next_bid <- env.next_bid + 1;
  Hashtbl.replace env.blocks b.Ir.bid b;
  Hashtbl.replace env.preds b.Ir.bid [];
  env.func.Ir.blocks <- env.func.Ir.blocks @ [ b ];
  b

let add_pred env ~target ~pred =
  let ps = try Hashtbl.find env.preds target with Not_found -> [] in
  Hashtbl.replace env.preds target (pred :: ps)

let terminate env term =
  if not env.terminated then begin
    env.cur.Ir.term <- term;
    List.iter
      (fun s -> add_pred env ~target:s ~pred:env.cur.Ir.bid)
      (Ir.successors term);
    env.terminated <- true
  end

let switch_to env b =
  env.cur <- b;
  env.terminated <- false

let emit env inst : Ir.operand =
  if env.terminated then begin
    let b = new_block env in
    Hashtbl.replace env.sealed b.Ir.bid ();
    switch_to env b
  end;
  let v = Ir.fresh_value env.func in
  env.cur.Ir.insts <- env.cur.Ir.insts @ [ (v, inst) ];
  Ir.Val v

let write_variable env var bid op = Hashtbl.replace env.defs (var, bid) op

let new_phi env bid : Ir.value =
  let v = Ir.fresh_value env.func in
  let b = Hashtbl.find env.blocks bid in
  b.Ir.insts <- (v, Ir.Phi []) :: b.Ir.insts;
  v

let set_phi_args env bid phi args =
  let b = Hashtbl.find env.blocks bid in
  b.Ir.insts <-
    List.map
      (fun (v, inst) -> if v = phi then (v, Ir.Phi args) else (v, inst))
      b.Ir.insts

let rec read_variable env var bid : Ir.operand =
  match Hashtbl.find_opt env.defs (var, bid) with
  | Some op -> op
  | None -> read_recursive env var bid

and read_recursive env var bid : Ir.operand =
  if not (Hashtbl.mem env.sealed bid) then begin
    let phi = new_phi env bid in
    let pending = try Hashtbl.find env.incomplete bid with Not_found -> [] in
    Hashtbl.replace env.incomplete bid ((var, phi) :: pending);
    write_variable env var bid (Ir.Val phi);
    Ir.Val phi
  end
  else
    match Hashtbl.find env.preds bid with
    | [] -> Ir.Const 0l   (* unreachable read; locals are zero-initialized *)
    | [ p ] ->
      let op = read_variable env var p in
      write_variable env var bid op;
      op
    | ps ->
      let phi = new_phi env bid in
      write_variable env var bid (Ir.Val phi);
      let args = List.map (fun p -> (p, read_variable env var p)) ps in
      set_phi_args env bid phi args;
      Ir.Val phi

let seal_block env bid =
  if not (Hashtbl.mem env.sealed bid) then begin
    let pending = try Hashtbl.find env.incomplete bid with Not_found -> [] in
    Hashtbl.replace env.sealed bid ();
    List.iter
      (fun (var, phi) ->
         let ps = Hashtbl.find env.preds bid in
         let args = List.map (fun p -> (p, read_variable env var p)) ps in
         set_phi_args env bid phi args)
      (List.rev pending);
    Hashtbl.remove env.incomplete bid
  end

(* ---------- operand stack ---------- *)

let push env op = env.stack <- op :: env.stack

let pop env =
  match env.stack with
  | op :: rest -> env.stack <- rest; op
  | [] -> bug "operand stack underflow escaped validation"

let peek env =
  match env.stack with
  | op :: _ -> op
  | [] -> bug "operand stack underflow escaped validation"

let set_height env h =
  let rec drop l n = if n <= 0 then l else drop (List.tl l) (n - 1) in
  let cur = List.length env.stack in
  if cur < h then bug "operand stack shorter than frame base"
  else env.stack <- drop env.stack (cur - h)

(* ---------- control frames ---------- *)

type block_ctrl = {
  bresult : bool;
  join : Ir.block_id;
  phi : Ir.value option;                         (* result phi in [join] *)
  mutable args : (Ir.block_id * Ir.operand) list;
}

type ctrl =
  | Cblock of block_ctrl
  | Cloop of { header : Ir.block_id }
  | Cfunc of { fresult : bool }

(* ---------- operator mappings ---------- *)

let binop_ir : Ast.binop -> Ir.binop = function
  | Add -> Ir.Add | Sub -> Ir.Sub | Mul -> Ir.Mul
  | Div_s -> Ir.Div | Div_u -> Ir.Divu
  | Rem_s -> Ir.Rem | Rem_u -> Ir.Remu
  | And -> Ir.And | Or -> Ir.Or | Xor -> Ir.Xor
  | Shl -> Ir.Shl | Shr_s -> Ir.Ashr | Shr_u -> Ir.Lshr

(* The IR has no Gtu/Leu: unsigned > and <= are the swapped-operand
   forms of Ltu/Geu. *)
let lower_cmp env (op : Ast.cmpop) a b : Ir.operand =
  match op with
  | Eq -> emit env (Ir.Cmp (Ir.Eq, a, b))
  | Ne -> emit env (Ir.Cmp (Ir.Ne, a, b))
  | Lt_s -> emit env (Ir.Cmp (Ir.Lt, a, b))
  | Le_s -> emit env (Ir.Cmp (Ir.Le, a, b))
  | Gt_s -> emit env (Ir.Cmp (Ir.Gt, a, b))
  | Ge_s -> emit env (Ir.Cmp (Ir.Ge, a, b))
  | Lt_u -> emit env (Ir.Cmp (Ir.Ltu, a, b))
  | Ge_u -> emit env (Ir.Cmp (Ir.Geu, a, b))
  | Gt_u -> emit env (Ir.Cmp (Ir.Ltu, b, a))
  | Le_u -> emit env (Ir.Cmp (Ir.Geu, b, a))

(* Linear-memory effective address: &wasm_memory + dynamic address,
   with the static offset folded into the access when it fits. *)
let lower_mem_addr env addr off : Ir.operand * int =
  let base = emit env (Ir.Global_addr mem_sym) in
  let ea = emit env (Ir.Bin (Ir.Add, base, addr)) in
  if off <= max_fold_offset then (ea, off)
  else (emit env (Ir.Bin (Ir.Add, ea, Ir.Const (Int32.of_int off))), 0)

(* ---------- instruction lowering ---------- *)

(* [lower_seq m env frames body] lowers one instruction sequence;
   returns true when it ended in an unconditional transfer (the
   caller's fall-through is dead). *)
let rec lower_seq (m : module_) env (frames : ctrl list) (body : instr list) :
  bool =
  match body with
  | [] -> false
  | i :: rest ->
    let dead =
      match i with
      | Const n -> push env (Ir.Const n); false
      | Bin op ->
        let b = pop env in
        let a = pop env in
        push env (emit env (Ir.Bin (binop_ir op, a, b)));
        false
      | Cmp op ->
        let b = pop env in
        let a = pop env in
        push env (lower_cmp env op a b);
        false
      | Eqz ->
        let a = pop env in
        push env (emit env (Ir.Cmp (Ir.Eq, a, Ir.Const 0l)));
        false
      | Local_get i -> push env (read_variable env i env.cur.Ir.bid); false
      | Local_set i ->
        let v = pop env in
        write_variable env i env.cur.Ir.bid v;
        false
      | Local_tee i ->
        write_variable env i env.cur.Ir.bid (peek env);
        false
      | Global_get g ->
        let addr = emit env (Ir.Global_addr (global_sym g)) in
        push env (emit env (Ir.Load (addr, 0)));
        false
      | Global_set g ->
        let v = pop env in
        let addr = emit env (Ir.Global_addr (global_sym g)) in
        ignore (emit env (Ir.Store (v, addr, 0)));
        false
      | Load off ->
        let addr = pop env in
        let ea, off = lower_mem_addr env addr off in
        push env (emit env (Ir.Load (ea, off)));
        false
      | Store off ->
        let v = pop env in
        let addr = pop env in
        let ea, off = lower_mem_addr env addr off in
        ignore (emit env (Ir.Store (v, ea, off)));
        false
      | Call idx -> lower_call m env idx; false
      | Drop -> ignore (pop env); false
      | Nop -> false
      | Select ->
        (* branchless: r = b ^ ((a ^ b) & -(c != 0)) *)
        let c = pop env in
        let b = pop env in
        let a = pop env in
        let nz = emit env (Ir.Cmp (Ir.Ne, c, Ir.Const 0l)) in
        let mask = emit env (Ir.Bin (Ir.Sub, Ir.Const 0l, nz)) in
        let diff = emit env (Ir.Bin (Ir.Xor, a, b)) in
        let sel = emit env (Ir.Bin (Ir.And, diff, mask)) in
        push env (emit env (Ir.Bin (Ir.Xor, b, sel)));
        false
      | Block { result; body } ->
        let join = new_block env in
        let phi = if result then Some (Ir.fresh_value env.func) else None in
        let base = List.length env.stack in
        let bc = { bresult = result; join = join.Ir.bid; phi; args = [] } in
        let dead_end = lower_seq m env (Cblock bc :: frames) body in
        if not dead_end then begin
          (if result then
             let v = pop env in
             bc.args <- (env.cur.Ir.bid, v) :: bc.args);
          terminate env (Ir.Br join.Ir.bid)
        end;
        (match phi with
         | Some v -> join.Ir.insts <- (v, Ir.Phi (List.rev bc.args)) :: join.Ir.insts
         | None -> ());
        seal_block env join.Ir.bid;
        switch_to env join;
        set_height env base;
        (match phi with Some v -> push env (Ir.Val v) | None -> ());
        false
      | Loop { result; body } ->
        let header = new_block env in
        let base = List.length env.stack in
        terminate env (Ir.Br header.Ir.bid);
        switch_to env header;   (* header stays unsealed for back edges *)
        let dead_end =
          lower_seq m env (Cloop { header = header.Ir.bid } :: frames) body
        in
        seal_block env header.Ir.bid;
        if dead_end then begin
          (* the loop never falls through; park the continuation in a
             fresh unreachable block (dropped by remove_unreachable) *)
          let b = new_block env in
          Hashtbl.replace env.sealed b.Ir.bid ();
          switch_to env b;
          set_height env base;
          if result then push env (Ir.Const 0l)
        end;
        (* on fall-through the result (if any) is already on top *)
        false
      | Br d -> lower_br env frames d; true
      | Br_if d ->
        let cond = pop env in
        let else_bb = new_block env in
        (match List.nth frames d with
         | Cloop { header } ->
           terminate env (Ir.Cond_br (cond, header, else_bb.Ir.bid))
         | Cblock bc ->
           (* label values are passed to the target and kept for the
              fall-through: peek, don't pop *)
           (if bc.bresult then
              bc.args <- (env.cur.Ir.bid, peek env) :: bc.args);
           terminate env (Ir.Cond_br (cond, bc.join, else_bb.Ir.bid))
         | Cfunc { fresult } ->
           let then_bb = new_block env in
           terminate env (Ir.Cond_br (cond, then_bb.Ir.bid, else_bb.Ir.bid));
           Hashtbl.replace env.sealed then_bb.Ir.bid ();
           switch_to env then_bb;
           terminate env
             (Ir.Ret (if fresult then peek env else Ir.Const 0l)));
        seal_block env else_bb.Ir.bid;
        switch_to env else_bb;
        false
      | Return -> lower_br env frames (List.length frames - 1); true
    in
    if dead then true else lower_seq m env frames rest

and lower_br env (frames : ctrl list) (d : int) : unit =
  match List.nth frames d with
  | Cfunc { fresult } ->
    let op = if fresult then pop env else Ir.Const 0l in
    terminate env (Ir.Ret op)
  | Cblock bc ->
    (if bc.bresult then
       let v = pop env in
       bc.args <- (env.cur.Ir.bid, v) :: bc.args);
    terminate env (Ir.Br bc.join)
  | Cloop { header } -> terminate env (Ir.Br header)

and lower_call (m : module_) env (idx : int) : unit =
  let ni = List.length m.imports in
  if idx < ni then begin
    let im = List.nth m.imports idx in
    let arg = pop env in
    let mmio =
      match im.imp_name with
      | "putint" -> Assembler.Layout.mmio_putint
      | "putchar" -> Assembler.Layout.mmio_putchar
      | n -> bug "unvalidated import %s" n
    in
    ignore (emit env (Ir.Store (arg, Ir.Const (Int32.of_int mmio), 0)))
  end
  else begin
    let params, result = func_sig m idx in
    let args = ref [] in
    for _ = 1 to params do args := pop env :: !args done;
    let r = emit env (Ir.Call (func_ir_name m idx, !args)) in
    if result then push env r
  end

(* IR/assembly name of function-space index [idx]: the exported main is
   "main" (required by the ISS and interpreter); everything else gets a
   positional name, collision-free by construction. *)
and func_ir_name (m : module_) (idx : int) : string =
  let ni = List.length m.imports in
  let f = List.nth m.funcs (idx - ni) in
  if f.export = Some "main" then "main" else Printf.sprintf "wf%d" idx

(* ---------- function and module lowering ---------- *)

let lower_func (m : module_) (fidx : int) (f : Ast.func) : Ir.func =
  let ni = List.length m.imports in
  let name = func_ir_name m (ni + fidx) in
  let func =
    { Ir.name; nparams = f.params; nvalues = f.params; blocks = [];
      frame_bytes = 0 }
  in
  let env =
    { func;
      blocks = Hashtbl.create 16;
      next_bid = 0;
      cur = { Ir.bid = -1; insts = []; term = Ir.Ret (Ir.Const 0l) };
      terminated = true;
      defs = Hashtbl.create 64;
      sealed = Hashtbl.create 16;
      preds = Hashtbl.create 16;
      incomplete = Hashtbl.create 8;
      stack = [] }
  in
  let entry = new_block env in
  Hashtbl.replace env.sealed entry.Ir.bid ();
  switch_to env entry;
  for i = 0 to f.params - 1 do
    write_variable env i entry.Ir.bid (Ir.Val i)
  done;
  for j = f.params to f.params + f.locals - 1 do
    write_variable env j entry.Ir.bid (Ir.Const 0l)
  done;
  let dead = lower_seq m env [ Cfunc { fresult = f.result } ] f.body in
  if not dead then begin
    let op = if f.result then pop env else Ir.Const 0l in
    terminate env (Ir.Ret op)
  end;
  Minic.Lower.remove_trivial_phis func;
  Ssa_ir.Passes.remove_unreachable func;
  Ssa_ir.Analysis.validate func;
  func

(* [lower m] validates and lowers a parsed module to an IR program.
   Data layout: one word per global ("wasm_global_<i>", declaration
   order), then the linear memory ("wasm_memory"). *)
let lower (m : module_) : Ir.program =
  ignore (Valid.check m : int);
  let funcs = List.mapi (fun i f -> lower_func m i f) m.funcs in
  let globals =
    List.mapi
      (fun i (g : global) ->
         { Ir.sym = global_sym i; words = [ g.gl_init ]; extra_bytes = 0 })
      m.globals
  in
  let mem =
    match m.mem_pages with
    | Some pages ->
      [ { Ir.sym = mem_sym; words = []; extra_bytes = pages * page_bytes } ]
    | None -> []
  in
  { Ir.funcs; data = globals @ mem }

(* [compile src] parses, validates, and lowers WAT source to SSA IR —
   the WASM twin of [Minic.Lower.compile]. *)
let compile (src : string) : Ir.program = lower (Parser.parse src)
