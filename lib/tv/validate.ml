(* Per-function symbolic translation validation (the tentpole of lib/tv).

   For every function we walk the SSA IR and the linked machine code in
   lockstep, block by block, evaluating both sides into the shared term
   algebra of [Term].  The machine side threads the real operand
   semantics — STRAIGHT register distances against a symbolic result
   ring, RV32IM against a 32-entry register file — so a wrong distance
   or a misallocated register reads the *wrong term*, not just an
   out-of-range encoding.  At every observable point the two sides must
   normalize to equal terms: non-frame store address/value pairs in
   program order, call targets and argument vectors, the return value,
   plus the machine-level return protocol (return address, SP restored,
   riscv callee-saved registers).

   Control flow is matched through the block labels both back-ends
   leave in the image's symbol table (".L<fn>_<bid>").  A block's
   machine code runs from its label until it reaches the label of the
   IR successor under validation; conditional branches consume the IR
   path condition and must agree with it (the diverging predicate is
   reported otherwise).  Loops need no unrolling: states meeting at a
   merge block (>= 2 predecessors, or the entry) are *joined* lane by
   lane — equal terms stay, terms that correlate to the same IR
   phi-web become the canonical [Join (bid, v)] leaf on both sides,
   correlated frame slots become [JoinM], anything else is havocked to
   [Dead].  Each lane can only step concrete -> Join -> Dead, so the
   fixpoint terminates; the join *is* the back-edge havoc.

   Memory: addresses that normalize to an SP-at-entry displacement are
   frame-private and tracked in side maps (one per side — the machine
   frame also holds spills and callee-saved saves); everything else is
   an observable event, and loads from it are uninterpreted terms keyed
   by a memory-version counter that both sides advance identically
   (reset to a per-block base at block entry, bumped per non-frame
   store and per call).  Calls are summarized: both sides bind the
   result to the same [Retcall] leaf, the machine side havocs exactly
   the state the calling convention gives up, and the (documented)
   frame-disjointness assumption lets frame maps survive the call.

   The validator abstains — an [Info] "tv-abstain" finding, never a
   silent pass — when a function defeats it: step/join budgets
   exhausted, missing labels, instructions outside the back-ends'
   repertoire.  Errors are real refutations up to the abstraction;
   passes are sound up to normalization incompleteness never conflating
   distinct values (QCheck-pinned in [Term]). *)

module Ir = Ssa_ir.Ir
module An = Ssa_ir.Analysis
module T = Term
module Image = Assembler.Image
module Sisa = Straight_isa.Isa
module Risa = Riscv_isa.Isa
module Compile = Straight_core.Compile

type target = Straight | Riscv

let target_name = function Straight -> "straight" | Riscv -> "riscv"

type finding = Lint_report.finding

(* ---------- program cloning ---------- *)

(* Both back-ends mutate the IR they compile (edge splitting, layout,
   DCE), so validating X against its image requires compiling a clone
   when the caller wants to keep X pristine — and the *mutated* clone is
   what the image is validated against. *)
let clone_func (f : Ir.func) : Ir.func =
  { Ir.name = f.Ir.name;
    nparams = f.Ir.nparams;
    nvalues = f.Ir.nvalues;
    frame_bytes = f.Ir.frame_bytes;
    blocks =
      List.map
        (fun (b : Ir.block) ->
           { Ir.bid = b.Ir.bid; insts = b.Ir.insts; term = b.Ir.term })
        f.Ir.blocks }

let clone_program (p : Ir.program) : Ir.program =
  { Ir.funcs = List.map clone_func p.Ir.funcs; data = p.Ir.data }

(* ---------- symbolic states ---------- *)

module IMap = Map.Make (Int)

(* The STRAIGHT result ring: [front] holds the most recent results
   (head = distance 1), [rest] stands for every deeper slot.  [sp] is
   the architectural SP. *)
type ring = { front : T.t list; flen : int; rest : T.t; sp : T.t }

type mstate = Mring of ring | Mregs of T.t array

type state = {
  env : T.t IMap.t;    (* IR value -> term *)
  irmem : T.t IMap.t;  (* IR-side frame slots, by SP0 displacement *)
  mmem : T.t IMap.t;   (* machine-side frame slots (locals + spills) *)
  ms : mstate;
}

(* Observable events of one block, in program order. *)
type ev = Estore of T.t * T.t | Ecall of string * T.t list

type goal = Gblock of Ir.block_id | Gret of T.t

(* ---------- per-function context ---------- *)

type code = Cstraight of Sisa.resolved option array
          | Criscv of Risa.resolved option array

type fctx = {
  target : target;
  image : Image.t;
  code : code;
  arity : (string, int) Hashtbl.t;        (* callee -> nparams *)
  fun_addrs : (int, string) Hashtbl.t;    (* f_<g> address -> g *)
  globals : (string, int) Hashtbl.t;
  fn : Ir.func;
  cfg : An.cfg;
  lv : An.liveness;
  bounds : (int, Ir.block_id list) Hashtbl.t;  (* label addr -> bids *)
  block_addr : (Ir.block_id, int) Hashtbl.t;
  read_bound : int;           (* deepest ring slot a read can reach *)
  mutable frame_disp : int;   (* net SP displacement after the prologue *)
  mutable findings : finding list;  (* reversed *)
  seen : (int * string * string, unit) Hashtbl.t;
      (* fixpoint iteration re-walks blocks; identical findings dedup *)
  mutable errors : int;
  mutable steps : int;
}

exception Abandon_func  (* abstained / error cap; findings recorded *)
exception Dead_path     (* this path cannot continue; finding recorded *)

let max_errors = 24
let step_budget = 400_000
let join_budget = 2_000

let add_finding ctx ?(severity = Lint_report.Error) ~pc ~check msg =
  let key = (pc, check, msg) in
  let fresh = not (Hashtbl.mem ctx.seen key) in
  if fresh then begin
    Hashtbl.replace ctx.seen key ();
    ctx.findings <-
      Lint_report.finding ~severity ~func:ctx.fn.Ir.name ~pc ~check msg
      :: ctx.findings
  end;
  if fresh && severity = Lint_report.Error then begin
    ctx.errors <- ctx.errors + 1;
    if ctx.errors > max_errors then begin
      ctx.findings <-
        Lint_report.finding ~severity:Lint_report.Info
          ~func:ctx.fn.Ir.name ~pc ~check:"tv-abstain"
          "error cap reached; validation of this function stopped"
        :: ctx.findings;
      raise Abandon_func
    end
  end

let abstain ctx ~pc msg =
  add_finding ctx ~severity:Lint_report.Info ~pc ~check:"tv-abstain" msg;
  raise Abandon_func

let bump_step ctx ~pc =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > step_budget then
    abstain ctx ~pc "step budget exhausted (function too large to validate)"

(* Memory versions restart from a canonical per-block base so loop
   iterations produce identical terms and the merge join can converge;
   100k leaves room for any block's own stores/calls. *)
let base_ver (rpo_idx : int) = (rpo_idx + 1) * 100_000

let trail_str (trail : Ir.block_id list) =
  String.concat "->"
    (List.rev_map (fun b -> Printf.sprintf "bb%d" b) trail)

(* ---------- predicates ---------- *)

let pred_not (t : T.t) : T.t =
  match t with
  | T.Cmp (op, a, b) -> T.normalize (T.Cmp (T.neg_cmp op, a, b))
  | t -> T.normalize (T.Cmp (Ir.Eq, t, T.Const 0l))

let mk_ne0 (t : T.t) : T.t =
  match t with
  | T.Cmp _ -> t
  | T.Const c -> T.Const (if c <> 0l then 1l else 0l)
  | t -> T.normalize (T.Cmp (Ir.Ne, t, T.Const 0l))

let mk_eq0 (t : T.t) : T.t =
  match t with
  | T.Const c -> T.Const (if c = 0l then 1l else 0l)
  | t -> pred_not (mk_ne0 t)

let cmpop_of_cond : Risa.branch_cond -> Ir.cmpop = function
  | Risa.Beq -> Ir.Eq | Risa.Bne -> Ir.Ne | Risa.Blt -> Ir.Lt
  | Risa.Bge -> Ir.Ge | Risa.Bltu -> Ir.Ltu | Risa.Bgeu -> Ir.Geu

(* ---------- ALU terms ---------- *)

let binop_of_salu : Sisa.alu_op -> Ir.binop option = function
  | Sisa.Add -> Some Ir.Add | Sisa.Sub -> Some Ir.Sub
  | Sisa.And -> Some Ir.And | Sisa.Or -> Some Ir.Or
  | Sisa.Xor -> Some Ir.Xor | Sisa.Sll -> Some Ir.Shl
  | Sisa.Srl -> Some Ir.Lshr | Sisa.Sra -> Some Ir.Ashr
  | Sisa.Mul -> Some Ir.Mul | Sisa.Div -> Some Ir.Div
  | Sisa.Divu -> Some Ir.Divu | Sisa.Rem -> Some Ir.Rem
  | Sisa.Remu -> Some Ir.Remu
  | Sisa.Slt | Sisa.Sltu | Sisa.Mulh -> None

let term_of_salu (op : Sisa.alu_op) (a : T.t) (b : T.t) : T.t =
  T.normalize
    (match op with
     | Sisa.Slt -> T.Cmp (Ir.Lt, a, b)
     | Sisa.Sltu -> T.Cmp (Ir.Ltu, a, b)
     | Sisa.Mulh -> T.Mulh (a, b)
     | op ->
       (match binop_of_salu op with
        | Some bop -> T.Bin (bop, a, b)
        | None -> assert false))

let term_of_salui (op : Sisa.alui_op) (a : T.t) (imm : int32) : T.t =
  T.normalize
    (match op with
     | Sisa.Slti -> T.Cmp (Ir.Lt, a, T.Const imm)
     | Sisa.Sltui -> T.Cmp (Ir.Ltu, a, T.Const imm)
     | op -> term_of_salu (Sisa.alu_of_alui op) a (T.Const imm))

let binop_of_ralu : Risa.alu_op -> Ir.binop option = function
  | Risa.Add -> Some Ir.Add | Risa.Sub -> Some Ir.Sub
  | Risa.And -> Some Ir.And | Risa.Or -> Some Ir.Or
  | Risa.Xor -> Some Ir.Xor | Risa.Sll -> Some Ir.Shl
  | Risa.Srl -> Some Ir.Lshr | Risa.Sra -> Some Ir.Ashr
  | Risa.Mul -> Some Ir.Mul | Risa.Div -> Some Ir.Div
  | Risa.Divu -> Some Ir.Divu | Risa.Rem -> Some Ir.Rem
  | Risa.Remu -> Some Ir.Remu
  | Risa.Slt | Risa.Sltu | Risa.Mulh | Risa.Mulhsu | Risa.Mulhu -> None

(* ---------- IR-side execution of one block body ---------- *)

let lookup ctx ~pc env (v : Ir.value) : T.t =
  match IMap.find_opt v env with
  | Some t -> t
  | None ->
    abstain ctx ~pc (Printf.sprintf "internal: IR value v%d unbound" v)

let operand ctx ~pc env : Ir.operand -> T.t = function
  | Ir.Const c -> T.Const c
  | Ir.Val v -> lookup ctx ~pc env v

let addr_term base off =
  T.normalize (T.Bin (Ir.Add, base, T.Const (Int32.of_int off)))

(* Execute the non-phi instructions of [b] (phis transfer at edges).
   Returns the extended env, the IR frame map, the advanced memory
   version and the observable events (reversed). *)
let exec_ir ctx (st : state) (ver0 : int) (b : Ir.block) ~(pc : int) :
  T.t IMap.t * T.t IMap.t * int * ev list =
  let env = ref st.env and irmem = ref st.irmem in
  let ver = ref ver0 and evs = ref [] in
  let opnd op = operand ctx ~pc !env op in
  List.iter
    (fun (v, inst) ->
       bump_step ctx ~pc;
       let bind t = env := IMap.add v t !env in
       match inst with
       | Ir.Phi _ -> ()
       | Ir.Bin (op, a, b') -> bind (T.normalize (T.Bin (op, opnd a, opnd b')))
       | Ir.Cmp (op, a, b') -> bind (T.normalize (T.Cmp (op, opnd a, opnd b')))
       | Ir.Load (a, off) ->
         let addr = addr_term (opnd a) off in
         bind
           (match addr with
            | T.Sp k ->
              (match IMap.find_opt k !irmem with
               | Some t -> t
               | None -> T.Uninit k)
            | _ -> T.Load (!ver, addr))
       | Ir.Store (x, a, off) ->
         let addr = addr_term (opnd a) off in
         let xv = opnd x in
         (match addr with
          | T.Sp k -> irmem := IMap.add k xv !irmem
          | _ ->
            evs := Estore (addr, xv) :: !evs;
            incr ver);
         bind xv
       | Ir.Call (g, args) ->
         evs := Ecall (g, List.map opnd args) :: !evs;
         bind (T.Retcall !ver);
         incr ver
       | Ir.Frame_addr off -> bind (T.Sp (ctx.frame_disp + off))
       | Ir.Global_addr s ->
         (match Hashtbl.find_opt ctx.globals s with
          | Some a -> bind (T.Const (Int32.of_int a))
          | None ->
            abstain ctx ~pc (Printf.sprintf "unknown global %s" s)))
    b.Ir.insts;
  (!env, !irmem, !ver, !evs)

(* ---------- machine-side execution ---------- *)

(* Shared load/store classification: SP-displacement addresses hit the
   side-private frame map, anything else is an uninterpreted load or an
   observable store event. *)
let m_load mmem ver (addr : T.t) : T.t =
  match addr with
  | T.Sp k -> (match IMap.find_opt k !mmem with
      | Some t -> t
      | None -> T.Uninit k)
  | _ -> T.Load (!ver, addr)

let m_store mmem evs ver (addr : T.t) (x : T.t) : unit =
  match addr with
  | T.Sp k -> mmem := IMap.add k x !mmem
  | _ ->
    evs := Estore (addr, x) :: !evs;
    incr ver

(* Direction through a conditional branch: does the taken edge lead to
   the goal block's label?  (Cond_br targets are branched to directly —
   critical edges are split before layout on both back-ends.) *)
let leads_to_goal ctx ~goal ~target =
  match goal with
  | Gret _ -> false
  | Gblock g ->
    (match Hashtbl.find_opt ctx.block_addr g with
     | Some a -> a = target
     | None -> false)

(* Consume the IR path condition at a machine conditional branch and
   return the next pc.  A statically-forced branch (condition a
   constant) follows its direction without consuming anything. *)
let branch ctx ~pc ~pred ~trail ~goal ~(taken_pred : T.t) ~(target : int) :
  int =
  match taken_pred with
  | T.Const c -> if c <> 0l then target else pc + 4
  | _ ->
    (match !pred with
     | None ->
       add_finding ctx ~pc ~check:"tv-cfg"
         (Printf.sprintf
            "machine code branches on %s where the IR path (%s) has no \
             conditional branch"
            (T.to_string taken_pred) (trail_str trail));
       raise Dead_path
     | Some ir_p ->
       pred := None;
       let taken = leads_to_goal ctx ~goal ~target in
       let mp = if taken then taken_pred else pred_not taken_pred in
       if mp <> ir_p then
         add_finding ctx ~pc ~check:"tv-branch"
           (Printf.sprintf
              "path condition diverges on %s: ir=%s mc=%s"
              (trail_str trail) (T.to_string ir_p) (T.to_string mp));
       if taken then target else pc + 4)

(* Arrival test at the top of each machine step.  [bounds] maps a label
   address to the blocks starting there (several, when empty blocks
   collapse onto the same address).  Before the first instruction only
   a *different* co-located block counts as arrival, so a self-loop
   back edge still executes its body. *)
let arrived ctx ~pc ~moved ~src_bid ~goal =
  match goal with
  | Gret _ -> false
  | Gblock g ->
    (match Hashtbl.find_opt ctx.bounds pc with
     | Some bids when List.mem g bids -> moved || g <> src_bid
     | _ -> false)

(* Crossing a foreign block label without having reached the goal means
   machine control flow disagrees with the IR edge. *)
let check_stray_label ctx ~pc ~moved ~trail ~goal =
  if moved then
    match Hashtbl.find_opt ctx.bounds pc with
    | Some bids ->
      add_finding ctx ~pc ~check:"tv-cfg"
        (Printf.sprintf
           "machine code reaches bb%s where the IR path (%s) expects %s"
           (match bids with b :: _ -> string_of_int b | [] -> "?")
           (trail_str trail)
           (match goal with
            | Gblock g -> Printf.sprintf "bb%d" g
            | Gret _ -> "a return"));
      raise Dead_path
    | None -> ()

let fetch_idx ctx pc =
  let i = (pc - ctx.image.Image.text_base) / 4 in
  if pc land 3 = 0 && i >= 0 && i < Array.length ctx.image.Image.text then
    Some i
  else None

let decode_failure ctx ~pc =
  add_finding ctx ~pc ~check:"tv-decode"
    (Printf.sprintf "execution reaches 0x%x with no decodable instruction" pc);
  raise Dead_path

let callee_arity ctx ~pc g =
  match Hashtbl.find_opt ctx.arity g with
  | Some n -> n
  | None ->
    add_finding ctx ~pc ~check:"tv-call"
      (Printf.sprintf "call to unknown function %s" g);
    raise Dead_path

(* --- STRAIGHT --- *)

let ring_read (r : ring) (d : int) : T.t =
  if d = 0 then T.Const 0l
  else if d <= r.flen then List.nth r.front (d - 1)
  else r.rest

(* Keep the front as deep as any read can reach.  Every ring read is an
   operand of a decoded word of this image, a JAL argument (distances
   1..arity) or the return slot a JR reads (distance 1), so no read goes
   deeper than [bound] ([read_bound]).  A push only buries a slot deeper,
   so a slot below the bound is never read again: truncating it here, or
   collapsing it into [rest] at a join, changes no term that a check
   compares.  The bound comes from the code under validation, so a
   mutant that reads deeper raises the bound itself. *)
let ring_push (r : ring) (t : T.t) ~(bound : int) : ring =
  let front = t :: r.front and flen = r.flen + 1 in
  if flen > bound + 256 then
    { r with front = List.filteri (fun i _ -> i < bound) front;
             flen = bound }
  else { r with front; flen }

let exec_straight ctx (r0 : ring) (mmem0 : T.t IMap.t) (ver0 : int)
    ~(start_pc : int) ~(src_bid : Ir.block_id) ~(goal : goal)
    ~(pred0 : T.t option) ~(trail : Ir.block_id list) :
  ring * T.t IMap.t * int * ev list =
  let insns =
    match ctx.code with Cstraight a -> a | Criscv _ -> assert false
  in
  let r = ref r0 and mmem = ref mmem0 in
  let ver = ref ver0 and evs = ref [] in
  let pc = ref start_pc and moved = ref false in
  let pred = ref pred0 in
  let read d = ring_read !r d in
  let push t = r := ring_push !r t ~bound:ctx.read_bound in
  let rec loop () =
    if arrived ctx ~pc:!pc ~moved:!moved ~src_bid ~goal then
      (!r, !mmem, !ver, !evs)
    else begin
      check_stray_label ctx ~pc:!pc ~moved:!moved ~trail ~goal;
      bump_step ctx ~pc:!pc;
      let here = !pc in
      match (match fetch_idx ctx here with
             | Some i -> insns.(i)
             | None -> None) with
      | None -> decode_failure ctx ~pc:here
      | Some insn ->
        moved := true;
        (match insn with
         | Sisa.Alu (op, a, b) ->
           push (term_of_salu op (read a) (read b));
           pc := here + 4
         | Sisa.Alui (op, a, imm) ->
           push (term_of_salui op (read a) imm);
           pc := here + 4
         | Sisa.Lui imm ->
           push (T.Const (Int32.shift_left imm 12));
           pc := here + 4
         | Sisa.Rmov a ->
           push (read a);
           pc := here + 4
         | Sisa.Nop ->
           push (T.Const 0l);
           pc := here + 4
         | Sisa.Ld (b, off) ->
           push (m_load mmem ver (addr_term (read b) off));
           pc := here + 4
         | Sisa.St (v, b, off) ->
           let x = read v in
           m_store mmem evs ver (addr_term (read b) off) x;
           push x;
           pc := here + 4
         | Sisa.Spadd k ->
           let sp' = addr_term (!r).sp k in
           r := { !r with sp = sp' };
           push sp';
           pc := here + 4
         | Sisa.Bez (d, off) ->
           let tp = mk_eq0 (read d) in
           push (T.Const 0l);
           pc := branch ctx ~pc:here ~pred ~trail ~goal ~taken_pred:tp
               ~target:(here + (4 * off))
         | Sisa.Bnz (d, off) ->
           let tp = mk_ne0 (read d) in
           push (T.Const 0l);
           pc := branch ctx ~pc:here ~pred ~trail ~goal ~taken_pred:tp
               ~target:(here + (4 * off))
         | Sisa.J off ->
           push (T.Const 0l);
           pc := here + (4 * off)
         | Sisa.Jal off ->
           let target = here + (4 * off) in
           (match Hashtbl.find_opt ctx.fun_addrs target with
            | None ->
              add_finding ctx ~pc:here ~check:"tv-cfg"
                "JAL targets something that is not a function entry";
              raise Dead_path
            | Some g ->
              let n = callee_arity ctx ~pc:here g in
              (* STRAIGHT convention: argument i sits at distance n-i
                 just before the JAL (producers immediately precede
                 it, Fig. 5). *)
              let args = List.init n (fun i -> read (n - i)) in
              evs := Ecall (g, args) :: !evs;
              let id = !ver in
              incr ver;
              (* Returning, distance 1 is the callee's JR slot and
                 distance 2 its return value; everything deeper shifted
                 by an unknowable dynamic instruction count. *)
              r := { front = [ T.Dead (id, 0); T.Retcall id ];
                     flen = 2;
                     rest = T.Dead (id, 1);
                     sp = (!r).sp };
              pc := here + 4)
         | Sisa.Jr d ->
           (match goal with
            | Gblock g ->
              add_finding ctx ~pc:here ~check:"tv-cfg"
                (Printf.sprintf
                   "machine code returns where the IR path (%s) continues \
                    to bb%d" (trail_str trail) g);
              raise Dead_path
            | Gret ret_t ->
              if read d <> T.Ra then
                add_finding ctx ~pc:here ~check:"tv-ret-addr"
                  (Printf.sprintf
                     "JR operand [%d] is %s, not the incoming return \
                      address" d (T.to_string (read d)));
              if (!r).sp <> T.Sp 0 then
                add_finding ctx ~pc:here ~check:"tv-sp"
                  (Printf.sprintf "SP at return is %s, not restored"
                     (T.to_string (!r).sp));
              let rv = read 1 in
              if rv <> ret_t then
                add_finding ctx ~pc:here ~check:"tv-retval"
                  (Printf.sprintf
                     "return value diverges on %s: ir=%s mc=%s"
                     (trail_str trail) (T.to_string ret_t) (T.to_string rv));
              raise Exit)
         | Sisa.Halt ->
           add_finding ctx ~pc:here ~check:"tv-cfg"
             "HALT inside a function body";
           raise Dead_path);
        loop ()
    end
  in
  try loop () with Exit -> (!r, !mmem, !ver, !evs)

(* --- RV32IM --- *)

let callee_saved = [ 8; 9; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ]
let call_clobbered = [ 5; 6; 7; 11; 12; 13; 14; 15; 16; 17; 28; 29; 30; 31 ]

let exec_riscv ctx (regs0 : T.t array) (mmem0 : T.t IMap.t) (ver0 : int)
    ~(start_pc : int) ~(src_bid : Ir.block_id) ~(goal : goal)
    ~(pred0 : T.t option) ~(trail : Ir.block_id list) :
  T.t array * T.t IMap.t * int * ev list =
  let insns =
    match ctx.code with Criscv a -> a | Cstraight _ -> assert false
  in
  let regs = Array.copy regs0 in
  let mmem = ref mmem0 in
  let ver = ref ver0 and evs = ref [] in
  let pc = ref start_pc and moved = ref false in
  let pred = ref pred0 in
  let set rd t = if rd <> 0 then regs.(rd) <- t in
  let alu_term op a b =
    match op with
    | Risa.Slt -> T.normalize (T.Cmp (Ir.Lt, a, b))
    | Risa.Sltu -> T.normalize (T.Cmp (Ir.Ltu, a, b))
    | Risa.Mulh -> T.normalize (T.Mulh (a, b))
    | Risa.Mulhsu | Risa.Mulhu ->
      abstain ctx ~pc:!pc "mulhsu/mulhu are outside the validated repertoire"
    | op ->
      (match binop_of_ralu op with
       | Some bop -> T.normalize (T.Bin (bop, a, b))
       | None -> assert false)
  in
  let rec loop () =
    if arrived ctx ~pc:!pc ~moved:!moved ~src_bid ~goal then
      (regs, !mmem, !ver, !evs)
    else begin
      check_stray_label ctx ~pc:!pc ~moved:!moved ~trail ~goal;
      bump_step ctx ~pc:!pc;
      let here = !pc in
      match (match fetch_idx ctx here with
             | Some i -> insns.(i)
             | None -> None) with
      | None -> decode_failure ctx ~pc:here
      | Some insn ->
        moved := true;
        (match insn with
         | Risa.Lui (rd, imm) ->
           set rd (T.Const (Int32.shift_left imm 12));
           pc := here + 4
         | Risa.Auipc (rd, imm) ->
           set rd
             (T.Const
                (Int32.add (Int32.of_int here) (Int32.shift_left imm 12)));
           pc := here + 4
         | Risa.Alui (op, rd, rs, imm) ->
           let a = regs.(rs) and c = T.Const (Int32.of_int imm) in
           set rd
             (match op with
              | Risa.Slti -> T.normalize (T.Cmp (Ir.Lt, a, c))
              | Risa.Sltiu -> T.normalize (T.Cmp (Ir.Ltu, a, c))
              | Risa.Addi -> alu_term Risa.Add a c
              | Risa.Xori -> alu_term Risa.Xor a c
              | Risa.Ori -> alu_term Risa.Or a c
              | Risa.Andi -> alu_term Risa.And a c
              | Risa.Slli -> alu_term Risa.Sll a c
              | Risa.Srli -> alu_term Risa.Srl a c
              | Risa.Srai -> alu_term Risa.Sra a c);
           pc := here + 4
         | Risa.Alu (op, rd, r1, r2) ->
           set rd (alu_term op regs.(r1) regs.(r2));
           pc := here + 4
         | Risa.Lw (rd, rs, imm) ->
           set rd (m_load mmem ver (addr_term regs.(rs) imm));
           pc := here + 4
         | Risa.Sw (rs2, rs1, imm) ->
           m_store mmem evs ver (addr_term regs.(rs1) imm) regs.(rs2);
           pc := here + 4
         | Risa.Branch (cond, r1, r2, off) ->
           let tp =
             T.normalize
               (T.Cmp (cmpop_of_cond cond, regs.(r1), regs.(r2)))
           in
           pc := branch ctx ~pc:here ~pred ~trail ~goal ~taken_pred:tp
               ~target:(here + off)
         | Risa.Jal (0, off) -> pc := here + off
         | Risa.Jal (1, off) ->
           let target = here + off in
           (match Hashtbl.find_opt ctx.fun_addrs target with
            | None ->
              add_finding ctx ~pc:here ~check:"tv-cfg"
                "JAL ra targets something that is not a function entry";
              raise Dead_path
            | Some g ->
              let n = callee_arity ctx ~pc:here g in
              let args = List.init n (fun i -> regs.(10 + i)) in
              evs := Ecall (g, args) :: !evs;
              let id = !ver in
              incr ver;
              set 10 (T.Retcall id);
              List.iter (fun rr -> set rr (T.Dead (id, rr))) call_clobbered;
              set 1 (T.Const (Int32.of_int (here + 4)));
              pc := here + 4)
         | Risa.Jal (_, _) ->
           add_finding ctx ~pc:here ~check:"tv-cfg"
             "JAL with an unexpected link register";
           raise Dead_path
         | Risa.Jalr (0, 1, 0) ->
           (match goal with
            | Gblock g ->
              add_finding ctx ~pc:here ~check:"tv-cfg"
                (Printf.sprintf
                   "machine code returns where the IR path (%s) continues \
                    to bb%d" (trail_str trail) g);
              raise Dead_path
            | Gret ret_t ->
              if regs.(1) <> T.Ra then
                add_finding ctx ~pc:here ~check:"tv-ret-addr"
                  (Printf.sprintf "ra at return is %s, not the incoming \
                                   return address" (T.to_string regs.(1)));
              if regs.(2) <> T.Sp 0 then
                add_finding ctx ~pc:here ~check:"tv-sp"
                  (Printf.sprintf "sp at return is %s, not restored"
                     (T.to_string regs.(2)));
              List.iter
                (fun rr ->
                   if regs.(rr) <> T.Reg0 rr then
                     add_finding ctx ~pc:here ~check:"tv-callee-saved"
                       (Printf.sprintf "s-register x%d returns as %s, not \
                                        its entry value" rr
                          (T.to_string regs.(rr))))
                callee_saved;
              if regs.(10) <> ret_t then
                add_finding ctx ~pc:here ~check:"tv-retval"
                  (Printf.sprintf "return value diverges on %s: ir=%s mc=%s"
                     (trail_str trail) (T.to_string ret_t)
                     (T.to_string regs.(10)));
              raise Exit)
         | Risa.Jalr (_, _, _) ->
           add_finding ctx ~pc:here ~check:"tv-cfg"
             "indirect jump outside the return idiom";
           raise Dead_path
         | Risa.Ebreak ->
           add_finding ctx ~pc:here ~check:"tv-cfg"
             "EBREAK inside a function body";
           raise Dead_path);
        loop ()
    end
  in
  try loop () with Exit -> (regs, !mmem, !ver, !evs)

let exec_machine ctx (st : state) (ver0 : int) ~start_pc ~src_bid ~goal
    ~pred0 ~trail : mstate * T.t IMap.t * int * ev list =
  match st.ms with
  | Mring r ->
    let r', mmem', ver', evs =
      exec_straight ctx r st.mmem ver0 ~start_pc ~src_bid ~goal ~pred0 ~trail
    in
    (Mring r', mmem', ver', evs)
  | Mregs regs ->
    let regs', mmem', ver', evs =
      exec_riscv ctx regs st.mmem ver0 ~start_pc ~src_bid ~goal ~pred0 ~trail
    in
    (Mregs regs', mmem', ver', evs)

(* ---------- observable comparison ---------- *)

let pp_ev = function
  | Estore (a, x) ->
    Printf.sprintf "store %s <- %s" (T.to_string a) (T.to_string x)
  | Ecall (g, args) ->
    Printf.sprintf "call %s(%s)" g
      (String.concat ", " (List.map T.to_string args))

let compare_events ctx ~pc ~trail (ir_rev : ev list) (mc_rev : ev list) =
  let irl = List.rev ir_rev and mcl = List.rev mc_rev in
  let ni = List.length irl and nm = List.length mcl in
  if ni <> nm then
    add_finding ctx ~pc ~check:"tv-event-order"
      (Printf.sprintf
         "block on %s emits %d observable events in the IR but %d in \
          machine code" (trail_str trail) ni nm);
  let rec walk k irs mcs =
    match irs, mcs with
    | [], _ | _, [] -> ()
    | i :: irs', m :: mcs' ->
      (match i, m with
       | Estore (ia, ix), Estore (ma, mx) ->
         if ia <> ma then
           add_finding ctx ~pc ~check:"tv-store"
             (Printf.sprintf
                "store #%d address diverges on %s: ir=%s mc=%s" k
                (trail_str trail) (T.to_string ia) (T.to_string ma))
         else if ix <> mx then
           add_finding ctx ~pc ~check:"tv-store"
             (Printf.sprintf
                "store #%d value diverges on %s: ir=%s mc=%s" k
                (trail_str trail) (T.to_string ix) (T.to_string mx))
       | Ecall (ig, ia), Ecall (mg, ma) ->
         if ig <> mg then
           add_finding ctx ~pc ~check:"tv-call"
             (Printf.sprintf "call #%d targets %s in the IR but %s in \
                              machine code" k ig mg)
         else
           List.iteri
             (fun j (x, y) ->
                if x <> y then
                  add_finding ctx ~pc ~check:"tv-call"
                    (Printf.sprintf
                       "call #%d to %s: argument %d diverges on %s: ir=%s \
                        mc=%s" k ig j (trail_str trail) (T.to_string x)
                       (T.to_string y)))
             (List.combine ia ma
              |> fun l -> if List.length ia = List.length ma then l else [])
       | _ ->
         add_finding ctx ~pc ~check:"tv-event-order"
           (Printf.sprintf "event #%d on %s: ir has [%s], machine code has \
                            [%s]" k (trail_str trail) (pp_ev i) (pp_ev m)));
      walk (k + 1) irs' mcs'
  in
  walk 0 irl mcl

(* ---------- merge joins ---------- *)

(* Smallest entry-frame value carrying exactly (tA, tB) across the two
   incoming states: the canonical representative for a correlated
   unknown.  IntSet folds in ascending order, so the choice is
   deterministic and shared between the IR env and machine lanes. *)
let rel ~ef ~envA ~envB (tA : T.t) (tB : T.t) : Ir.value option =
  An.IntSet.fold
    (fun v acc ->
       match acc with
       | Some _ -> acc
       | None ->
         if IMap.find_opt v envA = Some tA && IMap.find_opt v envB = Some tB
         then Some v
         else None)
    ef None

let join_lane ~bid ~ef ~envA ~envB ~dead (tA : T.t) (tB : T.t) : T.t =
  if tA = tB then tA
  else
    match rel ~ef ~envA ~envB tA tB with
    | Some v -> T.Join (bid, v)
    | None -> dead

let join_states ctx (sidx : int) (a : state) (b : state) : state =
  let bid = ctx.cfg.blocks.(sidx).Ir.bid in
  let ef = An.entry_frame ctx.lv sidx in
  let envA = a.env and envB = b.env in
  let lane = join_lane ~bid ~ef ~envA ~envB in
  let env =
    An.IntSet.fold
      (fun v acc ->
         let t =
           match IMap.find_opt v envA, IMap.find_opt v envB with
           | Some x, Some y -> lane ~dead:(T.Dead (bid, 500_000 + v)) x y
           | _ -> T.Dead (bid, 500_000 + v)
         in
         IMap.add v t acc)
      ef IMap.empty
  in
  (* Frame slots: the IR and machine maps join over the union of
     offsets; a machine slot whose two incoming terms match the IR
     slot's pair joins to the shared [JoinM] leaf, so values that
     round-trip through the frame stay correlated. *)
  let keys m acc = IMap.fold (fun k _ acc -> k :: acc) m acc in
  let all_keys =
    List.sort_uniq compare
      (keys a.irmem (keys b.irmem (keys a.mmem (keys b.mmem []))))
  in
  let irmem, mmem =
    List.fold_left
      (fun (irmem, mmem) k ->
         let get m = match IMap.find_opt k m with
           | Some t -> t
           | None -> T.Uninit k
         in
         let iA = get a.irmem and iB = get b.irmem in
         let mA = get a.mmem and mB = get b.mmem in
         let ir_t =
           if iA = iB then iA
           else
             match rel ~ef ~envA ~envB iA iB with
             | Some v -> T.Join (bid, v)
             | None -> T.JoinM (bid, k)
         in
         let mc_t =
           if mA = mB then mA
           else
             match rel ~ef ~envA ~envB mA mB with
             | Some v -> T.Join (bid, v)
             | None ->
               if mA = iA && mB = iB then T.JoinM (bid, k)
               else T.Dead (bid, 100_000 + k)
         in
         (IMap.add k ir_t irmem, IMap.add k mc_t mmem))
      (IMap.empty, IMap.empty) all_keys
  in
  let ms =
    match a.ms, b.ms with
    | Mring ra, Mring rb ->
      let n = min (max ra.flen rb.flen) ctx.read_bound in
      let front =
        List.init n
          (fun i ->
             let tA = ring_read ra (i + 1) and tB = ring_read rb (i + 1) in
             lane ~dead:(T.Dead (bid, i)) tA tB)
      in
      let rest = if ra.rest = rb.rest then ra.rest else T.Dead (bid, -1) in
      let sp = if ra.sp = rb.sp then ra.sp else T.Dead (bid, -2) in
      Mring { front; flen = n; rest; sp }
    | Mregs xa, Mregs xb ->
      Mregs
        (Array.init 32
           (fun i ->
              if i = 0 then T.Const 0l
              else lane ~dead:(T.Dead (bid, 1_000 + i)) xa.(i) xb.(i)))
    | _ -> assert false
  in
  { env; irmem; mmem; ms }

let mstate_equal x y =
  match x, y with
  | Mring a, Mring b -> a.front = b.front && a.rest = b.rest && a.sp = b.sp
  | Mregs a, Mregs b -> a = b
  | _ -> false

let state_equal s1 s2 =
  IMap.equal ( = ) s1.env s2.env
  && IMap.equal ( = ) s1.irmem s2.irmem
  && IMap.equal ( = ) s1.mmem s2.mmem
  && mstate_equal s1.ms s2.ms

(* ---------- the per-function driver ---------- *)

(* Bind the successor's phis against the [pred_bid] edge (all in
   parallel, against the predecessor's env) and trim to the successor's
   entry frame so states stay small and joins see exactly the live
   values. *)
let edge_env ctx ~pc ~pred_bid ~succ_idx (env : T.t IMap.t) : T.t IMap.t =
  let sb = ctx.cfg.blocks.(succ_idx) in
  let bound =
    List.fold_left
      (fun acc (v, inst) ->
         match inst with
         | Ir.Phi arms ->
           (match List.assoc_opt pred_bid arms with
            | Some op -> IMap.add v (operand ctx ~pc env op) acc
            | None ->
              abstain ctx ~pc
                (Printf.sprintf "phi v%d has no arm for bb%d" v pred_bid))
         | _ -> acc)
      env sb.Ir.insts
  in
  An.IntSet.fold
    (fun v acc ->
       match IMap.find_opt v bound with
       | Some t -> IMap.add v t acc
       | None ->
         abstain ctx ~pc
           (Printf.sprintf "internal: entry-frame value v%d missing at bb%d"
              v sb.Ir.bid))
    (An.entry_frame ctx.lv succ_idx)
    IMap.empty

let block_start ctx bid ~pc =
  match Hashtbl.find_opt ctx.block_addr bid with
  | Some a -> a
  | None -> abstain ctx ~pc (Printf.sprintf "no label for bb%d" bid)

let run_function ctx (s0 : state) =
  let nb = Array.length ctx.cfg.blocks in
  let stored : state option array = Array.make nb None in
  let pending = Array.make nb false in
  let queue = Queue.create () in
  let pops = ref 0 in
  let is_merge i = i = 0 || List.length ctx.cfg.preds.(i) >= 2 in
  let enqueue i =
    if not pending.(i) then begin
      pending.(i) <- true;
      Queue.push i queue
    end
  in
  let rec run_block idx (st : state) trail =
    let b = ctx.cfg.blocks.(idx) in
    let bid = b.Ir.bid in
    let start_pc = block_start ctx bid ~pc:ctx.image.Image.entry in
    let env', irmem', ver', ir_evs =
      exec_ir ctx st (base_ver idx) b ~pc:start_pc
    in
    let follow_edge ~goal_bid ~ir_pred =
      try
        let ms', mmem', _ver_m, mc_evs =
          exec_machine ctx { st with env = env' } (base_ver idx) ~start_pc
            ~src_bid:bid ~goal:(Gblock goal_bid) ~pred0:ir_pred ~trail
        in
        compare_events ctx ~pc:start_pc ~trail ir_evs mc_evs;
        let sidx = An.block_index ctx.cfg goal_bid in
        let env'' =
          edge_env ctx ~pc:start_pc ~pred_bid:bid ~succ_idx:sidx env'
        in
        let st' = { env = env''; irmem = irmem'; mmem = mmem'; ms = ms' } in
        ignore ver';
        if is_merge sidx then begin
          match stored.(sidx) with
          | None ->
            stored.(sidx) <- Some st';
            enqueue sidx
          | Some old ->
            let joined = join_states ctx sidx old st' in
            if not (state_equal joined old) then begin
              stored.(sidx) <- Some joined;
              enqueue sidx
            end
        end
        else run_block sidx st' (ctx.cfg.blocks.(sidx).Ir.bid :: trail)
      with Dead_path -> ()
    in
    match b.Ir.term with
    | Ir.Ret op ->
      let ret_t = operand ctx ~pc:start_pc env' op in
      (try
         let _ms, _mmem, _ver, mc_evs =
           exec_machine ctx { st with env = env' } (base_ver idx) ~start_pc
             ~src_bid:bid ~goal:(Gret ret_t) ~pred0:None ~trail
         in
         compare_events ctx ~pc:start_pc ~trail ir_evs mc_evs
       with Dead_path -> ())
    | Ir.Br t -> follow_edge ~goal_bid:t ~ir_pred:None
    | Ir.Cond_br (c, t1, t2) ->
      let ct = operand ctx ~pc:start_pc env' c in
      if t1 = t2 then follow_edge ~goal_bid:t1 ~ir_pred:None
      else (
        match ct with
        | T.Const cv ->
          (* statically dead IR edge: only the live one is walked *)
          follow_edge ~goal_bid:(if cv <> 0l then t1 else t2) ~ir_pred:None
        | _ ->
          follow_edge ~goal_bid:t1 ~ir_pred:(Some (mk_ne0 ct));
          follow_edge ~goal_bid:t2 ~ir_pred:(Some (mk_eq0 ct)))
  in
  stored.(0) <- Some s0;
  enqueue 0;
  while not (Queue.is_empty queue) do
    let idx = Queue.pop queue in
    pending.(idx) <- false;
    incr pops;
    if !pops > join_budget then
      abstain ctx ~pc:ctx.image.Image.entry
        "join budget exhausted (merge states failed to converge)";
    match stored.(idx) with
    | Some st ->
      (try run_block idx st [ ctx.cfg.blocks.(idx).Ir.bid ]
       with Dead_path -> ())
    | None -> assert false
  done

(* ---------- entry states and the prologue ---------- *)

let entry_state ctx : state =
  let n = ctx.fn.Ir.nparams in
  let env =
    List.fold_left
      (fun acc i -> IMap.add i (T.Param i) acc)
      IMap.empty
      (List.init n (fun i -> i))
  in
  let ms =
    match ctx.target with
    | Straight ->
      (* Distance 1 is the caller's JAL (the return address), distances
         2..n+1 the argument producers, newest first (Fig. 5/6). *)
      Mring
        { front = T.Ra :: List.init n (fun i -> T.Param (n - 1 - i));
          flen = n + 1;
          rest = T.Dead (-1, 0);
          sp = T.Sp 0 }
    | Riscv ->
      Mregs
        (Array.init 32
           (fun r ->
              if r = 0 then T.Const 0l
              else if r = 1 then T.Ra
              else if r = 2 then T.Sp 0
              else if r >= 10 && r < 10 + n then T.Param (r - 10)
              else T.Reg0 r))
  in
  { env; irmem = IMap.empty; mmem = IMap.empty; ms }

let validate_func ctx =
  let fname = ctx.fn.Ir.name in
  let flabel =
    match ctx.target with
    | Straight -> Straight_cc.Codegen.func_label fname
    | Riscv -> Riscv_cc.Codegen.func_label fname
  in
  match Image.find_symbol ctx.image flabel with
  | None ->
    abstain ctx ~pc:ctx.image.Image.entry
      (Printf.sprintf "function label %s not in the image" flabel)
  | Some faddr ->
    let s0 = entry_state ctx in
    let entry_bid = ctx.cfg.blocks.(0).Ir.bid in
    (* The prologue (between the function label and the entry block's
       label) belongs to no IR block: SP adjustment and callee-saved
       saves, no observable events. *)
    let ms', mmem', _ver, evs =
      exec_machine ctx s0 (base_ver 0) ~start_pc:faddr ~src_bid:(-1)
        ~goal:(Gblock entry_bid) ~pred0:None ~trail:[ entry_bid ]
    in
    compare_events ctx ~pc:faddr ~trail:[ entry_bid ] [] evs;
    let sp =
      match ms' with Mring r -> r.sp | Mregs regs -> regs.(2)
    in
    (match sp with
     | T.Sp d -> ctx.frame_disp <- d
     | t ->
       abstain ctx ~pc:faddr
         (Printf.sprintf "prologue leaves SP at non-static %s"
            (T.to_string t)));
    let ef0 = An.entry_frame ctx.lv 0 in
    let env0 =
      IMap.filter (fun v _ -> An.IntSet.mem v ef0) s0.env
    in
    run_function ctx { env = env0; irmem = IMap.empty; mmem = mmem'; ms = ms' }

(* ---------- whole-image validation ---------- *)

let decode_code target (image : Image.t) : code =
  match target with
  | Straight ->
    Cstraight (Array.map Straight_isa.Encoding.decode image.Image.text)
  | Riscv -> Criscv (Array.map Riscv_isa.Encoding.decode image.Image.text)

(* The deepest STRAIGHT ring slot any read of this image can reach (see
   [ring_push]): the largest source distance of a decoded text word, the
   largest callee arity, and 1 for the return value; never above
   [max_dist].  Compiled code reads far less deep than the encoding
   allows (Fig. 16), and joins cost one lane per slot. *)
let read_bound ~max_dist (code : code) (prog : Ir.program) : int =
  match code with
  | Criscv _ -> max_dist
  | Cstraight insns ->
    let deepest =
      Array.fold_left
        (fun acc -> function
           | Some i -> List.fold_left max acc (Sisa.sources i)
           | None -> acc)
        1 insns
    in
    min max_dist
      (List.fold_left
         (fun acc (f : Ir.func) -> max acc f.Ir.nparams)
         deepest prog.Ir.funcs)

let validate_image ?(max_dist = Sisa.max_dist) ~(target : target)
    (prog : Ir.program) (image : Image.t) : finding list =
  let code = decode_code target image in
  let read_bound = read_bound ~max_dist code prog in
  let arity = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace arity f.Ir.name f.Ir.nparams)
    prog.Ir.funcs;
  let fun_addrs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
       let lab =
         match target with
         | Straight -> Straight_cc.Codegen.func_label f.Ir.name
         | Riscv -> Riscv_cc.Codegen.func_label f.Ir.name
       in
       match Image.find_symbol image lab with
       | Some a -> Hashtbl.replace fun_addrs a f.Ir.name
       | None -> ())
    prog.Ir.funcs;
  let globals =
    match target with
    | Straight -> Straight_cc.Codegen.layout_globals prog.Ir.data
    | Riscv -> Riscv_cc.Codegen.layout_globals prog.Ir.data
  in
  List.concat_map
    (fun (f : Ir.func) ->
       let cfg = An.build f in
       let lv = An.liveness cfg in
       let bounds = Hashtbl.create 32 in
       let block_addr = Hashtbl.create 32 in
       Array.iter
         (fun (b : Ir.block) ->
            let lab =
              match target with
              | Straight -> Straight_cc.Codegen.block_label f.Ir.name b.Ir.bid
              | Riscv -> Riscv_cc.Codegen.block_label f.Ir.name b.Ir.bid
            in
            match Image.find_symbol image lab with
            | Some a ->
              Hashtbl.replace block_addr b.Ir.bid a;
              Hashtbl.replace bounds a
                (b.Ir.bid
                 :: (match Hashtbl.find_opt bounds a with
                     | Some l -> l
                     | None -> []))
            | None -> ())
         cfg.An.blocks;
       let ctx =
         { target; image; code; arity; fun_addrs; globals; fn = f; cfg; lv;
           bounds; block_addr; read_bound; frame_disp = 0; findings = [];
           seen = Hashtbl.create 16;
           errors = 0; steps = 0 }
       in
       (try validate_func ctx with
        | Abandon_func -> ()
        | An.Invalid_ir msg | Invalid_argument msg ->
          ctx.findings <-
            Lint_report.finding ~severity:Lint_report.Info ~func:f.Ir.name
              ~pc:image.Image.entry ~check:"tv-abstain"
              (Printf.sprintf "IR analysis failed: %s" msg)
            :: ctx.findings);
       List.rev ctx.findings)
    prog.Ir.funcs

(* ---------- compile-and-validate front doors ---------- *)

(* Both front doors compile a clone through the pipeline the simulators
   run, so the caller's program stays pristine. *)
let validate_straight ?(config = Straight_cc.Codegen.default_config)
    (p : Ir.program) : finding list =
  let p = clone_program p in
  let out = Compile.backend (Compile.Straight config) p in
  validate_image ~max_dist:config.Straight_cc.Codegen.max_dist
    ~target:Straight p out.Compile.image

let validate_riscv (p : Ir.program) : finding list =
  let p = clone_program p in
  validate_image ~target:Riscv p (Compile.backend Compile.Riscv p).Compile.image

(* ---------- the mutation harness ---------- *)

(* Seeded single-instruction mutations of freshly generated STRAIGHT
   code: flip one operand distance, drop one RMOV, swap the operands of
   a non-commutative ALU op or a store.  Each is a real codegen bug
   shape (an off-by-one in distance fixing, a lost padding move, an
   argument-order slip), and the validator must reject every one with a
   finding naming the mutated function.

   Site selection is deterministic in the seed.  RMOV distance flips
   are excluded on purpose: adjacent ring slots frequently hold the
   same copied value, so flipping a copy's source is the one mutation
   shape that can be semantically invisible. *)

type mutation = {
  m_desc : string;       (* human-readable description of the change *)
  m_func : string;       (* the function whose body was mutated *)
  m_caught : bool;       (* did validation report an Error naming it? *)
  m_findings : finding list;
  m_images : (Image.t * Image.t) option;
      (* (original, mutated), when the mutated items still assembled;
         lets the harness ISS-check a miss for actual inequivalence *)
}

type site = {
  s_idx : int;
  s_kind : int;  (* 0 = distance flip, 1 = drop RMOV, 2 = operand swap *)
  s_desc : string;
  s_func : string;
  s_repl : Straight_cc.Codegen.item option;  (* None = drop the item *)
}

let flip d ~max_dist = if d + 1 <= max_dist then d + 1 else d - 1

let commutative_salu : Sisa.alu_op -> bool = function
  | Sisa.Add | Sisa.And | Sisa.Or | Sisa.Xor | Sisa.Mul -> true
  | _ -> false

let sites_of_items ~max_dist ~(known : (string, int) Hashtbl.t)
    (items : Straight_cc.Codegen.item list) : site list =
  let cur = ref None in
  let acc = ref [] in
  List.iteri
    (fun idx it ->
       (match it with
        | Assembler.Asm.Label l ->
          if String.length l > 2 && String.sub l 0 2 = "f_"
          && Hashtbl.mem known (String.sub l 2 (String.length l - 2))
          then cur := Some (String.sub l 2 (String.length l - 2))
          else if String.length l > 0 && l.[0] <> '.' then cur := None
        | _ -> ());
       match !cur, it with
       | Some fn, Assembler.Asm.Insn insn ->
         let add kind desc repl =
           acc := { s_idx = idx; s_kind = kind; s_desc = desc; s_func = fn;
                    s_repl = repl } :: !acc
         in
         let ins i = Some (Assembler.Asm.Insn i) in
         (match insn with
          | Sisa.Alu (op, a, b) ->
            if a > 0 then
              add 0
                (Printf.sprintf "%s: flip first operand distance %d -> %d"
                   fn a (flip a ~max_dist))
                (ins (Sisa.Alu (op, flip a ~max_dist, b)));
            if b > 0 then
              add 0
                (Printf.sprintf "%s: flip second operand distance %d -> %d"
                   fn b (flip b ~max_dist))
                (ins (Sisa.Alu (op, a, flip b ~max_dist)));
            if a <> b && not (commutative_salu op) then
              add 2
                (Printf.sprintf
                   "%s: swap operands of a non-commutative ALU op" fn)
                (ins (Sisa.Alu (op, b, a)))
          | Sisa.Alui (op, a, imm) ->
            if a > 0 then
              add 0
                (Printf.sprintf "%s: flip ALUI operand distance %d -> %d"
                   fn a (flip a ~max_dist))
                (ins (Sisa.Alui (op, flip a ~max_dist, imm)))
          | Sisa.Rmov d ->
            (* an RMOV [1] is a duplicate of the slot directly beneath
               it; dropping one only shifts deeper (often dead) slots
               and is frequently a semantic no-op, so only deeper
               copies are offered as drop sites *)
            if d >= 2 then
              add 1 (Printf.sprintf "%s: drop an RMOV [%d]" fn d) None
          | Sisa.Ld (b, off) ->
            if b > 0 then
              add 0
                (Printf.sprintf "%s: flip load base distance %d -> %d"
                   fn b (flip b ~max_dist))
                (ins (Sisa.Ld (flip b ~max_dist, off)))
          | Sisa.St (v, b, off) ->
            if v > 0 then
              add 0
                (Printf.sprintf "%s: flip store value distance %d -> %d"
                   fn v (flip v ~max_dist))
                (ins (Sisa.St (flip v ~max_dist, b, off)));
            if v <> b then
              add 2 (Printf.sprintf "%s: swap store value and base" fn)
                (ins (Sisa.St (b, v, off)))
          | Sisa.Bez (d, l) ->
            if d > 0 then
              add 0
                (Printf.sprintf "%s: flip branch operand distance %d -> %d"
                   fn d (flip d ~max_dist))
                (ins (Sisa.Bez (flip d ~max_dist, l)))
          | Sisa.Bnz (d, l) ->
            if d > 0 then
              add 0
                (Printf.sprintf "%s: flip branch operand distance %d -> %d"
                   fn d (flip d ~max_dist))
                (ins (Sisa.Bnz (flip d ~max_dist, l)))
          | _ -> ())
       | _ -> ())
    items;
  List.rev !acc

let mutation_trial ?(config = Straight_cc.Codegen.default_config)
    ~(fresh : unit -> Ir.program) ~(seed : int) () : mutation option =
  let p = fresh () in
  let items = Straight_cc.Codegen.compile ~config p in
  let known = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace known f.Ir.name f.Ir.nparams)
    p.Ir.funcs;
  let sites =
    sites_of_items ~max_dist:config.Straight_cc.Codegen.max_dist ~known items
  in
  if sites = [] then None
  else begin
    let pool_of k = List.filter (fun s -> s.s_kind = k) sites in
    let pools =
      List.filter (fun l -> l <> []) [ pool_of 0; pool_of 1; pool_of 2 ]
    in
    let pool = List.nth pools (abs seed mod List.length pools) in
    let site = List.nth pool (abs (seed / 7) mod List.length pool) in
    let items' =
      List.concat
        (List.mapi
           (fun i it ->
              if i <> site.s_idx then [ it ]
              else match site.s_repl with Some r -> [ r ] | None -> [])
           items)
    in
    match Assembler.Asm.Straight.assemble ~entry:"_start" items' with
    | exception Assembler.Asm.Asm_error msg ->
      Some { m_desc = site.s_desc ^ " (did not assemble: " ^ msg ^ ")";
             m_func = site.s_func; m_caught = false; m_findings = [];
             m_images = None }
    | image ->
      let base = Assembler.Asm.Straight.assemble ~entry:"_start" items in
      let findings =
        validate_image ~max_dist:config.Straight_cc.Codegen.max_dist
          ~target:Straight p image
      in
      let caught =
        List.exists
          (fun (f : finding) ->
             f.Lint_report.severity = Lint_report.Error
             && f.Lint_report.func = Some site.s_func)
          findings
      in
      Some { m_desc = site.s_desc; m_func = site.s_func;
             m_caught = caught; m_findings = findings;
             m_images = Some (base, image) }
  end
