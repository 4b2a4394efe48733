(* AST -> SSA lowering, following Braun et al.'s simple and efficient SSA
   construction: per-block variable definitions, operandless phis in
   not-yet-sealed blocks (loop headers), sealing once all predecessors are
   known, and trivial-phi elimination afterwards. *)

open Ast
module Ir = Ssa_ir.Ir

let fail fmt = Diag.error Diag.Lower_error fmt

type binding =
  | Bscalar of int                 (* SSA variable key *)
  | Blocal_array of int            (* frame byte offset *)
  | Bglobal_scalar of string
  | Bglobal_array of string

type loop_targets = { break_to : Ir.block_id; continue_to : Ir.block_id }

type env = {
  func : Ir.func;
  blocks : (Ir.block_id, Ir.block) Hashtbl.t;
  mutable next_bid : int;
  mutable cur : Ir.block;
  mutable terminated : bool;
  (* Braun state *)
  defs : (int * Ir.block_id, Ir.operand) Hashtbl.t;   (* (var, block) -> def *)
  sealed : (Ir.block_id, unit) Hashtbl.t;
  preds : (Ir.block_id, Ir.block_id list) Hashtbl.t;
  incomplete : (Ir.block_id, (int * Ir.value) list) Hashtbl.t;
  (* scoping *)
  mutable scopes : (string, binding) Hashtbl.t list;
  mutable next_var : int;
  mutable loops : loop_targets list;
  globals : (string, binding) Hashtbl.t;
  known_funcs : (string, int) Hashtbl.t;               (* name -> arity *)
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

(* Set the terminator of the current block and record CFG edges. *)
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
    (* unreachable code after return/break: emit into a fresh dead block so
       the construction stays well-formed; it is dropped later *)
    let b = new_block env in
    Hashtbl.replace env.sealed b.Ir.bid ();
    switch_to env b
  end;
  let v = Ir.fresh_value env.func in
  env.cur.Ir.insts <- env.cur.Ir.insts @ [ (v, inst) ];
  Ir.Val v

(* ---------- Braun SSA construction ---------- *)

let write_variable env var bid op = Hashtbl.replace env.defs (var, bid) op

let new_phi env bid : Ir.value =
  let v = Ir.fresh_value env.func in
  let b = Hashtbl.find env.blocks bid in
  (* phis live at the block head *)
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
    | [] ->
      (* read of an uninitialized variable in the entry block: C leaves this
         undefined; we define it as 0 to keep both back ends deterministic *)
      Ir.Const 0l
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

(* ---------- scoping ---------- *)

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> fail "scope underflow"

let declare env name binding =
  match env.scopes with
  | scope :: _ ->
    if Hashtbl.mem scope name then fail "redeclaration of %s" name;
    Hashtbl.replace scope name binding
  | [] -> fail "no scope"

let lookup env name : binding =
  let rec go = function
    | scope :: rest ->
      (match Hashtbl.find_opt scope name with
       | Some b -> b
       | None -> go rest)
    | [] ->
      (match Hashtbl.find_opt env.globals name with
       | Some b -> b
       | None -> fail "undefined variable %s" name)
  in
  go env.scopes

(* ---------- expression lowering ---------- *)

let binop_ir : Ast.binop -> Ir.binop = function
  | Add -> Ir.Add | Sub -> Ir.Sub | Mul -> Ir.Mul | Div -> Ir.Div
  | Rem -> Ir.Rem | And -> Ir.And | Or -> Ir.Or | Xor -> Ir.Xor
  | Shl -> Ir.Shl | Shr -> Ir.Ashr
  | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false

let cmpop_ir : Ast.binop -> Ir.cmpop = function
  | Eq -> Ir.Eq | Ne -> Ir.Ne | Lt -> Ir.Lt | Le -> Ir.Le | Gt -> Ir.Gt
  | Ge -> Ir.Ge
  | _ -> assert false

let mmio_addr addr = Ir.Const (Int32.of_int addr)

let rec lower_expr env (e : expr) : Ir.operand =
  match e with
  | Num n -> Ir.Const n
  | Char c -> Ir.Const (Int32.of_int (Char.code c))
  | Var name ->
    (match lookup env name with
     | Bscalar var -> read_variable env var env.cur.Ir.bid
     | Blocal_array off -> emit env (Ir.Frame_addr off)
     | Bglobal_array sym -> emit env (Ir.Global_addr sym)
     | Bglobal_scalar sym ->
       let addr = emit env (Ir.Global_addr sym) in
       emit env (Ir.Load (addr, 0)))
  | Binop (Land, a, b) -> lower_short_circuit env ~is_and:true a b
  | Binop (Lor, a, b) -> lower_short_circuit env ~is_and:false a b
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
    let va = lower_expr env a in
    let vb = lower_expr env b in
    emit env (Ir.Cmp (cmpop_ir op, va, vb))
  | Binop (op, a, b) ->
    let va = lower_expr env a in
    let vb = lower_expr env b in
    emit env (Ir.Bin (binop_ir op, va, vb))
  | Unop (Neg, a) ->
    let va = lower_expr env a in
    emit env (Ir.Bin (Ir.Sub, Ir.Const 0l, va))
  | Unop (Not, a) ->
    let va = lower_expr env a in
    emit env (Ir.Cmp (Ir.Eq, va, Ir.Const 0l))
  | Unop (Bnot, a) ->
    let va = lower_expr env a in
    emit env (Ir.Bin (Ir.Xor, va, Ir.Const (-1l)))
  | Call ("putint", [ a ]) ->
    let va = lower_expr env a in
    emit env (Ir.Store (va, mmio_addr Assembler.Layout.mmio_putint, 0))
  | Call ("putchar", [ a ]) ->
    let va = lower_expr env a in
    emit env (Ir.Store (va, mmio_addr Assembler.Layout.mmio_putchar, 0))
  | Call (name, args) ->
    (match Hashtbl.find_opt env.known_funcs name with
     | Some arity when arity = List.length args -> ()
     | Some arity ->
       fail "call %s: expected %d arguments, got %d" name arity
         (List.length args)
     | None -> fail "call to undefined function %s" name);
    let vargs = List.map (lower_expr env) args in
    emit env (Ir.Call (name, vargs))
  | Index (base, idx) ->
    let addr, off = lower_address env base idx in
    emit env (Ir.Load (addr, off))
  | Ternary (cond, te, fe) ->
    let c = lower_expr env cond in
    let tbb = new_block env in
    let fbb = new_block env in
    let join = new_block env in
    terminate env (Ir.Cond_br (c, tbb.Ir.bid, fbb.Ir.bid));
    seal_block env tbb.Ir.bid;
    seal_block env fbb.Ir.bid;
    switch_to env tbb;
    let tv = lower_expr env te in
    let t_end = env.cur.Ir.bid in
    terminate env (Ir.Br join.Ir.bid);
    switch_to env fbb;
    let fv = lower_expr env fe in
    let f_end = env.cur.Ir.bid in
    terminate env (Ir.Br join.Ir.bid);
    seal_block env join.Ir.bid;
    switch_to env join;
    let v = Ir.fresh_value env.func in
    join.Ir.insts <- (v, Ir.Phi [ (t_end, tv); (f_end, fv) ]) :: join.Ir.insts;
    Ir.Val v

(* Compute (address operand, constant byte offset) for base[idx]. *)
and lower_address env base idx : Ir.operand * int =
  let vbase = lower_expr env base in
  match idx with
  | Num n when Int32.to_int n >= -512 && Int32.to_int n < 512 ->
    (vbase, 4 * Int32.to_int n)
  | _ ->
    let vidx = lower_expr env idx in
    let scaled = emit env (Ir.Bin (Ir.Shl, vidx, Ir.Const 2l)) in
    (emit env (Ir.Bin (Ir.Add, vbase, scaled)), 0)

and lower_short_circuit env ~is_and a b : Ir.operand =
  let va = lower_expr env a in
  let ca = emit env (Ir.Cmp (Ir.Ne, va, Ir.Const 0l)) in
  let from_bid = env.cur.Ir.bid in
  let rhs = new_block env in
  let join = new_block env in
  if is_and then terminate env (Ir.Cond_br (ca, rhs.Ir.bid, join.Ir.bid))
  else terminate env (Ir.Cond_br (ca, join.Ir.bid, rhs.Ir.bid));
  seal_block env rhs.Ir.bid;
  switch_to env rhs;
  let vb = lower_expr env b in
  let cb = emit env (Ir.Cmp (Ir.Ne, vb, Ir.Const 0l)) in
  let rhs_end = env.cur.Ir.bid in
  terminate env (Ir.Br join.Ir.bid);
  seal_block env join.Ir.bid;
  switch_to env join;
  let short_val = if is_and then Ir.Const 0l else Ir.Const 1l in
  let v = Ir.fresh_value env.func in
  join.Ir.insts <-
    (v, Ir.Phi [ (from_bid, short_val); (rhs_end, cb) ]) :: join.Ir.insts;
  Ir.Val v

(* ---------- statement lowering ---------- *)

let rec lower_stmt env (s : stmt) : unit =
  match s with
  | Block stmts ->
    push_scope env;
    List.iter (lower_stmt env) stmts;
    pop_scope env
  | Decl (name, Scalar init) ->
    let value =
      match init with
      | Some e -> lower_expr env e
      | None -> Ir.Const 0l
    in
    let var = env.next_var in
    env.next_var <- var + 1;
    declare env name (Bscalar var);
    write_variable env var env.cur.Ir.bid value
  | Decl (name, Array n) ->
    if n <= 0 then fail "array %s has non-positive size" name;
    let off = env.func.Ir.frame_bytes in
    env.func.Ir.frame_bytes <- off + (4 * n);
    declare env name (Blocal_array off)
  | Assign (Lvar name, e) ->
    let v = lower_expr env e in
    (match lookup env name with
     | Bscalar var -> write_variable env var env.cur.Ir.bid v
     | Bglobal_scalar sym ->
       let addr = emit env (Ir.Global_addr sym) in
       ignore (emit env (Ir.Store (v, addr, 0)))
     | Blocal_array _ | Bglobal_array _ -> fail "cannot assign to array %s" name)
  | Assign (Lindex (base, idx), e) ->
    (* C evaluates the RHS and the address in unspecified order; we fix
       address-then-value order *)
    let addr, off = lower_address env base idx in
    let v = lower_expr env e in
    ignore (emit env (Ir.Store (v, addr, off)))
  | If (cond, then_s, else_s) ->
    let c = lower_expr env cond in
    let tbb = new_block env in
    let fbb = new_block env in
    (match else_s with
     | None ->
       terminate env (Ir.Cond_br (c, tbb.Ir.bid, fbb.Ir.bid));
       seal_block env tbb.Ir.bid;
       switch_to env tbb;
       lower_stmt env then_s;
       terminate env (Ir.Br fbb.Ir.bid);
       seal_block env fbb.Ir.bid;
       switch_to env fbb
     | Some else_s ->
       let join = new_block env in
       terminate env (Ir.Cond_br (c, tbb.Ir.bid, fbb.Ir.bid));
       seal_block env tbb.Ir.bid;
       seal_block env fbb.Ir.bid;
       switch_to env tbb;
       lower_stmt env then_s;
       terminate env (Ir.Br join.Ir.bid);
       switch_to env fbb;
       lower_stmt env else_s;
       terminate env (Ir.Br join.Ir.bid);
       seal_block env join.Ir.bid;
       switch_to env join)
  | While (cond, body) ->
    let header = new_block env in
    let body_bb = new_block env in
    let exit_bb = new_block env in
    terminate env (Ir.Br header.Ir.bid);
    switch_to env header;
    let c = lower_expr env cond in
    (* the condition may itself create blocks (short circuit) *)
    terminate env (Ir.Cond_br (c, body_bb.Ir.bid, exit_bb.Ir.bid));
    seal_block env body_bb.Ir.bid;
    switch_to env body_bb;
    env.loops <-
      { break_to = exit_bb.Ir.bid; continue_to = header.Ir.bid } :: env.loops;
    lower_stmt env body;
    env.loops <- List.tl env.loops;
    terminate env (Ir.Br header.Ir.bid);
    seal_block env header.Ir.bid;
    seal_block env exit_bb.Ir.bid;
    switch_to env exit_bb
  | Do_while (body, cond) ->
    let body_bb = new_block env in
    let cond_bb = new_block env in
    let exit_bb = new_block env in
    terminate env (Ir.Br body_bb.Ir.bid);
    switch_to env body_bb;
    env.loops <-
      { break_to = exit_bb.Ir.bid; continue_to = cond_bb.Ir.bid } :: env.loops;
    lower_stmt env body;
    env.loops <- List.tl env.loops;
    terminate env (Ir.Br cond_bb.Ir.bid);
    seal_block env cond_bb.Ir.bid;
    switch_to env cond_bb;
    let c = lower_expr env cond in
    terminate env (Ir.Cond_br (c, body_bb.Ir.bid, exit_bb.Ir.bid));
    seal_block env body_bb.Ir.bid;
    seal_block env exit_bb.Ir.bid;
    switch_to env exit_bb
  | For (init, cond, step, body) ->
    push_scope env;
    (match init with Some s -> lower_stmt env s | None -> ());
    let header = new_block env in
    let body_bb = new_block env in
    let step_bb = new_block env in
    let exit_bb = new_block env in
    terminate env (Ir.Br header.Ir.bid);
    switch_to env header;
    let c =
      match cond with
      | Some e -> lower_expr env e
      | None -> Ir.Const 1l
    in
    terminate env (Ir.Cond_br (c, body_bb.Ir.bid, exit_bb.Ir.bid));
    seal_block env body_bb.Ir.bid;
    switch_to env body_bb;
    env.loops <-
      { break_to = exit_bb.Ir.bid; continue_to = step_bb.Ir.bid } :: env.loops;
    lower_stmt env body;
    env.loops <- List.tl env.loops;
    terminate env (Ir.Br step_bb.Ir.bid);
    seal_block env step_bb.Ir.bid;
    switch_to env step_bb;
    (match step with Some s -> lower_stmt env s | None -> ());
    terminate env (Ir.Br header.Ir.bid);
    seal_block env header.Ir.bid;
    seal_block env exit_bb.Ir.bid;
    switch_to env exit_bb;
    pop_scope env
  | Return e ->
    let v = lower_expr env e in
    terminate env (Ir.Ret v)
  | Break ->
    (match env.loops with
     | { break_to; _ } :: _ -> terminate env (Ir.Br break_to)
     | [] -> fail "break outside loop")
  | Continue ->
    (match env.loops with
     | { continue_to; _ } :: _ -> terminate env (Ir.Br continue_to)
     | [] -> fail "continue outside loop")
  | Expr_stmt e -> ignore (lower_expr env e)

(* ---------- trivial phi elimination ---------- *)

(* Braun's construction leaves phis of the shape phi(x, x, self) — replace
   them by x, to a fixpoint. *)
let remove_trivial_phis (f : Ir.func) : unit =
  let changed = ref true in
  while !changed do
    changed := false;
    let replacement : (Ir.value, Ir.operand) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun b ->
         List.iter
           (fun (v, inst) ->
              match inst with
              | Ir.Phi args ->
                let non_self =
                  List.filter_map
                    (fun (_, op) -> if op = Ir.Val v then None else Some op)
                    args
                in
                (match non_self with
                 | [] -> ()
                 | first :: rest when List.for_all (( = ) first) rest ->
                   Hashtbl.replace replacement v first
                 | _ -> ())
              | _ -> ())
           b.Ir.insts)
      f.Ir.blocks;
    if Hashtbl.length replacement > 0 then begin
      changed := true;
      let rec resolve op =
        match op with
        | Ir.Val v ->
          (match Hashtbl.find_opt replacement v with
           | Some op' -> resolve op'
           | None -> op)
        | Ir.Const _ -> op
      in
      List.iter
        (fun b ->
           b.Ir.insts <-
             List.filter_map
               (fun (v, inst) ->
                  if Hashtbl.mem replacement v then None
                  else
                    Some
                      (v,
                       match inst with
                       | Ir.Bin (op, a, x) -> Ir.Bin (op, resolve a, resolve x)
                       | Ir.Cmp (op, a, x) -> Ir.Cmp (op, resolve a, resolve x)
                       | Ir.Load (a, o) -> Ir.Load (resolve a, o)
                       | Ir.Store (x, a, o) -> Ir.Store (resolve x, resolve a, o)
                       | Ir.Call (g, args) -> Ir.Call (g, List.map resolve args)
                       | Ir.Phi args ->
                         Ir.Phi (List.map (fun (p, o) -> (p, resolve o)) args)
                       | Ir.Frame_addr _ | Ir.Global_addr _ -> inst))
               b.Ir.insts;
           b.Ir.term <-
             (match b.Ir.term with
              | Ir.Ret op -> Ir.Ret (resolve op)
              | Ir.Br t -> Ir.Br t
              | Ir.Cond_br (c, t1, t2) -> Ir.Cond_br (resolve c, t1, t2)))
        f.Ir.blocks
    end
  done

(* ---------- function and program lowering ---------- *)

let lower_func ~globals ~known_funcs (fd : Ast.func) : Ir.func =
  let nparams = List.length fd.params in
  let f =
    { Ir.name = fd.name; nparams; nvalues = nparams; blocks = [];
      frame_bytes = 0 }
  in
  let env =
    { func = f;
      blocks = Hashtbl.create 16;
      next_bid = 0;
      cur = { Ir.bid = -1; insts = []; term = Ir.Ret (Ir.Const 0l) };
      terminated = true;
      defs = Hashtbl.create 64;
      sealed = Hashtbl.create 16;
      preds = Hashtbl.create 16;
      incomplete = Hashtbl.create 8;
      scopes = [];
      next_var = 0;
      loops = [];
      globals;
      known_funcs }
  in
  let entry = new_block env in
  Hashtbl.replace env.sealed entry.Ir.bid ();
  switch_to env entry;
  push_scope env;
  List.iteri
    (fun i p ->
       let var = env.next_var in
       env.next_var <- var + 1;
       declare env p (Bscalar var);
       write_variable env var entry.Ir.bid (Ir.Val i))
    fd.params;
  List.iter (lower_stmt env) fd.body;
  (* implicit `return 0` at the end of the body *)
  terminate env (Ir.Ret (Ir.Const 0l));
  pop_scope env;
  remove_trivial_phis f;
  Ssa_ir.Passes.remove_unreachable f;
  Ssa_ir.Analysis.validate f;
  f

let builtin_names = [ "putint"; "putchar" ]

(* [lower_program ast] produces the IR program: all functions lowered and
   validated, globals turned into data definitions. *)
let lower_program (ast : Ast.program) : Ir.program =
  let globals = Hashtbl.create 16 in
  let data =
    List.map
      (fun g ->
         match g with
         | Gvar (name, init) ->
           if Hashtbl.mem globals name then fail "duplicate global %s" name;
           Hashtbl.replace globals name (Bglobal_scalar name);
           { Ir.sym = name; words = [ init ]; extra_bytes = 0 }
         | Garray (name, size, init) ->
           if Hashtbl.mem globals name then fail "duplicate global %s" name;
           if List.length init > size then
             fail "global array %s: too many initializers" name;
           Hashtbl.replace globals name (Bglobal_array name);
           { Ir.sym = name;
             words = init;
             extra_bytes = 4 * (size - List.length init) })
      ast.globals
  in
  let known_funcs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace known_funcs n 1) builtin_names;
  List.iter
    (fun (fd : Ast.func) ->
       if Hashtbl.mem known_funcs fd.name then fail "duplicate function %s" fd.name;
       Hashtbl.replace known_funcs fd.name (List.length fd.params))
    ast.funcs;
  if not (Hashtbl.mem known_funcs "main") then fail "no main function";
  let funcs = List.map (lower_func ~globals ~known_funcs) ast.funcs in
  { Ir.funcs; data }

(* [compile src] is the front half of the paper's Fig. 7 flow: C-subset
   source -> SSA IR (the LLVM-IR stage). *)
let compile (src : string) : Ir.program =
  lower_program (Parser.parse src)
