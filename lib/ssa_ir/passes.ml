(* IR-to-IR passes: constant folding with algebraic simplification, dead
   code elimination, CFG cleanup, and critical-edge splitting (required by
   both back ends before phi lowering / distance fixing). *)

open Ir
module IntSet = Set.Make (Int)

(* ---------- sharing rewrites ---------- *)

(* The passes rewrite instruction lists functionally.  These helpers
   return their input physically when nothing in it changed, so a pass
   that leaves a block alone leaves its [insts] list physically in place
   and [run_passes]'s change check returns at once on it.  Elements are
   visited head first, like [List.map]. *)
let rec map_sharing g l =
  match l with
  | [] -> l
  | x :: tl ->
    let x' = g x in
    let tl' = map_sharing g tl in
    if x' == x && tl' == tl then l else x' :: tl'

let rec filter_sharing keep l =
  match l with
  | [] -> l
  | x :: tl ->
    let k = keep x in
    let tl' = filter_sharing keep tl in
    if not k then tl' else if tl' == tl then l else x :: tl'

(* [inst] with every operand passed through [g]. *)
let map_operands g inst =
  match inst with
  | Bin (op, a, x) ->
    let a' = g a and x' = g x in
    if a' == a && x' == x then inst else Bin (op, a', x')
  | Cmp (op, a, x) ->
    let a' = g a and x' = g x in
    if a' == a && x' == x then inst else Cmp (op, a', x')
  | Load (a, o) ->
    let a' = g a in
    if a' == a then inst else Load (a', o)
  | Store (x, a, o) ->
    let x' = g x and a' = g a in
    if x' == x && a' == a then inst else Store (x', a', o)
  | Call (name, args) ->
    let args' = map_sharing g args in
    if args' == args then inst else Call (name, args')
  | Phi ins ->
    let ins' =
      map_sharing
        (fun ((p, o) as arm) ->
           let o' = g o in
           if o' == o then arm else (p, o'))
        ins
    in
    if ins' == ins then inst else Phi ins'
  | Frame_addr _ | Global_addr _ -> inst

let map_term_operand g term =
  match term with
  | Ret op ->
    let op' = g op in
    if op' == op then term else Ret op'
  | Cond_br (c, t1, t2) ->
    let c' = g c in
    if c' == c then term else Cond_br (c', t1, t2)
  | Br _ -> term

(* Every instruction of [b] rewritten by [g] on [(v, inst)]. *)
let map_insts g (b : block) = b.insts <- map_sharing g b.insts

(* Every operand of [f] (instructions and terminators) through [g]. *)
let subst_operands g (f : func) =
  List.iter
    (fun b ->
       map_insts
         (fun ((v, inst) as d) ->
            let inst' = map_operands g inst in
            if inst' == inst then d else (v, inst'))
         b;
       b.term <- map_term_operand g b.term)
    f.blocks

(* ---------- constant folding ---------- *)

let fold_identities op a b =
  (* Algebraic identities that do not change bit-exact semantics. *)
  match op, a, b with
  | Add, x, Const 0l | Add, Const 0l, x -> Some (`Op x)
  | Sub, x, Const 0l -> Some (`Op x)
  | Mul, _, Const 0l | Mul, Const 0l, _ -> Some (`Const 0l)
  | Mul, x, Const 1l | Mul, Const 1l, x -> Some (`Op x)
  | (And | Or), x, y when x = y -> Some (`Op x)
  | And, _, Const 0l | And, Const 0l, _ -> Some (`Const 0l)
  | Or, x, Const 0l | Or, Const 0l, x -> Some (`Op x)
  | Xor, x, Const 0l | Xor, Const 0l, x -> Some (`Op x)
  | Xor, Val x, Val y when x = y -> Some (`Const 0l)
  | (Shl | Lshr | Ashr), x, Const 0l -> Some (`Op x)
  | (Shl | Lshr), Const 0l, _ -> Some (`Const 0l)
  | _ -> None

(* [const_fold f] rewrites through known constants and folds pure
   instructions.  [known.(v)] is [Const c] once [v] is known to be [c]. *)
let const_fold (f : func) : unit =
  let known = Array.make f.nvalues (Val (-1)) in
  let subst op =
    match op with
    | Val v -> (match known.(v) with Const _ as c -> c | Val _ -> op)
    | Const _ -> op
  in
  (* two sweeps so constants discovered late propagate into earlier blocks
     (phis); callers loop this pass to a fixpoint anyway *)
  for _sweep = 1 to 2 do
    List.iter
      (fun b ->
         map_insts
           (fun ((v, inst) as d) ->
              let inst' = map_operands subst inst in
              (match inst' with
               | Bin (op, Const a, Const x) -> known.(v) <- Const (eval_binop op a x)
               | Cmp (op, Const a, Const x) ->
                 known.(v) <- Const (if eval_cmpop op a x then 1l else 0l)
               | Bin (op, a, x) ->
                 (match fold_identities op a x with
                  | Some (`Const c) | Some (`Op (Const c)) -> known.(v) <- Const c
                  | Some (`Op (Val _)) | None -> ())
               | Phi ins ->
                 (* a phi whose inputs are all the same constant *)
                 (match ins with
                  | (_, (Const _ as c)) :: rest
                    when List.for_all (fun (_, o) -> o = c) rest ->
                    known.(v) <- c
                  | _ -> ())
               | _ -> ());
              if inst' == inst then d else (v, inst'))
           b;
         b.term <-
           (match b.term with
            | Cond_br (c, t1, t2) ->
              (match subst c with
               | Const c ->
                 let kept = if c <> 0l then t1 else t2 in
                 let dropped = if c <> 0l then t2 else t1 in
                 (* the dropped target loses this predecessor: prune arms *)
                 if dropped <> kept then
                   List.iter
                     (fun tb ->
                        if tb.bid = dropped then
                          map_insts
                            (fun ((v, inst) as d) ->
                               match inst with
                               | Phi arms ->
                                 let arms' =
                                   filter_sharing (fun (p, _) -> p <> b.bid) arms
                                 in
                                 if arms' == arms then d else (v, Phi arms')
                               | _ -> d)
                            tb)
                     f.blocks;
                 Br kept
               | Val _ -> b.term)
            | term -> map_term_operand subst term))
      f.blocks
  done;
  (* Replace folded definitions by trivial constants so DCE can drop them
     once all uses are rewritten.  Folded phis keep their shape: [subst]
     already rewrote every arm to the constant, and turning one into a
     [Bin] mid-block would put later phis after a non-phi. *)
  List.iter
    (map_insts (fun ((v, inst) as d) ->
         match known.(v), inst with
         | Const c, Bin (Add, Const c', Const 0l) when c = c' -> d
         | Const c, (Bin _ | Cmp _) -> (v, Bin (Add, Const c, Const 0l))
         | _ -> d))
    f.blocks;
  (* rewrite uses of identity-folded values: x + 0 -> x.  [copy_of.(v)]
     is the operand [v] copies, [Val (-1)] if none. *)
  let copy_of = Array.make f.nvalues (Val (-1)) in
  let copies = ref false in
  let copy v o = copy_of.(v) <- o; copies := true in
  List.iter
    (fun b ->
       List.iter
         (fun (v, inst) ->
            match inst with
            | Bin (op, a, x) ->
              (match fold_identities op a x with
               | Some (`Op o) -> copy v o
               | _ -> ())
            | Phi [ (_, o) ] -> copy v o
            | _ -> ())
         b.insts)
    f.blocks;
  if !copies then begin
    let rec resolve o =
      match o with
      | Val v ->
        (match copy_of.(v) with
         | Val w when w < 0 -> o
         | o' -> resolve o')
      | Const _ -> o
    in
    subst_operands resolve f
  end

(* ---------- dead code elimination ---------- *)

(* [dce f] removes pure instructions whose results are never
   (transitively) used: a worklist marks the uses of side effects and
   terminators, then the uses of every marked pure definition. *)
let dce (f : func) : unit =
  let n = f.nvalues in
  let def = Array.make n (Frame_addr 0) in   (* a def with no uses *)
  let used = Array.make n false in
  let stack = Array.make n 0 and top = ref 0 in
  let mark u =
    if not used.(u) then begin
      used.(u) <- true;
      stack.(!top) <- u;
      incr top
    end
  in
  List.iter
    (fun b ->
       List.iter
         (fun (v, inst) ->
            def.(v) <- inst;
            if has_side_effect inst then iter_uses mark inst)
         b.insts;
       iter_term_uses mark b.term)
    f.blocks;
  while !top > 0 do
    decr top;
    let inst = def.(stack.(!top)) in
    if not (has_side_effect inst) then iter_uses mark inst
  done;
  List.iter
    (fun b ->
       b.insts <-
         filter_sharing (fun (v, inst) -> has_side_effect inst || used.(v)) b.insts)
    f.blocks

(* ---------- CFG cleanup ---------- *)

(* Remove blocks unreachable from the entry and prune phi arms that
   referenced them; a phi left with one arm becomes a copy. *)
let remove_unreachable (f : func) : unit =
  let cfg = Analysis.build f in
  let reachable bid = Analysis.find_index cfg bid >= 0 in
  if Array.length cfg.Analysis.blocks < List.length f.blocks then
    f.blocks <- List.filter (fun b -> reachable b.bid) f.blocks;
  List.iter
    (map_insts (fun ((v, inst) as d) ->
         match inst with
         | Phi ins ->
           let ins' = filter_sharing (fun (p, _) -> reachable p) ins in
           (match ins' with
            | [ (_, op) ] -> (v, Bin (Add, op, Const 0l))
            | _ -> if ins' == ins then d else (v, Phi ins'))
         | _ -> d))
    f.blocks

(* Merge a straight-line pair b -> s when s's only predecessor is b. *)
let merge_blocks (f : func) : unit =
  let cfg = Analysis.build f in
  let n = Array.length cfg.Analysis.blocks in
  let removed = Array.make n false in   (* by RPO index *)
  let merged = ref false in
  for i = 0 to n - 1 do
    let b = cfg.Analysis.blocks.(i) in
    if not removed.(i) then
      match b.term with
      | Br t when t <> b.bid ->
        let ti = Analysis.block_index cfg t in
        let s = cfg.Analysis.blocks.(ti) in
        if cfg.Analysis.preds.(ti) = [ i ] && not removed.(ti)
           && not (List.exists (fun (_, inst) -> is_phi inst) s.insts)
           && s.bid <> (entry_block f).bid
        then begin
          b.insts <- b.insts @ s.insts;
          b.term <- s.term;
          (* successors of s now have predecessor b instead of s *)
          List.iter
            (map_insts (fun ((v, inst) as d) ->
                 match inst with
                 | Phi ins when List.exists (fun (p, _) -> p = s.bid) ins ->
                   (v, Phi (List.map
                              (fun (p, o) -> ((if p = s.bid then b.bid else p), o))
                              ins))
                 | _ -> d))
            f.blocks;
          removed.(ti) <- true;
          merged := true
        end
      | _ -> ()
  done;
  if !merged then
    f.blocks <-
      List.filter
        (fun b ->
           let i = Analysis.find_index cfg b.bid in
           i < 0 || not removed.(i))
        f.blocks

let simplify_cfg (f : func) : unit =
  remove_unreachable f;
  merge_blocks f

(* ---------- critical edge splitting ---------- *)

(* [split_critical_edges f] inserts an empty block on every edge P->S where
   P has several successors and S several predecessors.  Both back ends
   need this: STRAIGHT to give every merge predecessor its own frame tail,
   RISC-V to place phi moves. *)
let split_critical_edges (f : func) : unit =
  let next_bid =
    ref (List.fold_left (fun acc b -> max acc b.bid) 0 f.blocks + 1)
  in
  let cfg = Analysis.build f in
  let merge target =
    let i = Analysis.find_index cfg target in
    i >= 0 && List.compare_length_with cfg.Analysis.preds.(i) 1 > 0
  in
  let new_blocks = ref [] in
  List.iter
    (fun b ->
       match b.term with
       | Cond_br (c, t1, t2) ->
         let maybe_split target =
           if merge target then begin
             let e = { bid = !next_bid; insts = []; term = Br target } in
             incr next_bid;
             new_blocks := e :: !new_blocks;
             (* phi arms in target that pointed at b now come from e *)
             let tb = block f target in
             tb.insts <-
               List.map
                 (fun (v, inst) ->
                    match inst with
                    | Phi ins ->
                      (v, Phi (List.map
                                 (fun (p, o) -> ((if p = b.bid then e.bid else p), o))
                                 ins))
                    | _ -> (v, inst))
                 tb.insts;
             e.bid
           end
           else target
         in
         (* Split each leg independently; a conditional with two identical
            targets is normalized first. *)
         if t1 = t2 then b.term <- Br t1
         else begin
           let t1' = maybe_split t1 in
           let t2' = maybe_split t2 in
           b.term <- Cond_br (c, t1', t2')
         end
       | Br _ | Ret _ -> ())
    f.blocks;
  f.blocks <- f.blocks @ List.rev !new_blocks

(* Order blocks in reverse postorder (entry first); drops unreachable
   blocks.  Back ends use this as their layout order. *)
let layout_rpo (f : func) : unit =
  remove_unreachable f;
  let cfg = Analysis.build f in
  f.blocks <- Array.to_list cfg.Analysis.blocks

(* ---------- common subexpression elimination ---------- *)

(* Canonical key for pure, non-phi instructions (commutative operands
   normalized). *)
let cse_key (inst : inst) : inst option =
  let norm_pair a b =
    if a <= b then (a, b) else (b, a)
  in
  match inst with
  | Bin (op, a, b) ->
    (match op with
     | Add | Mul | And | Or | Xor ->
       let a, b = norm_pair a b in
       Some (Bin (op, a, b))
     | _ -> Some inst)
  | Cmp (_, _, _) | Frame_addr _ | Global_addr _ -> Some inst
  | Load _ | Store _ | Call _ | Phi _ -> None

(* [cse f] removes redundant pure computations: an instruction is replaced
   by an identical earlier one whose definition block dominates it.  The
   table keeps the first instance of each key seen in RPO order. *)
let cse (f : func) : unit =
  let cfg = Analysis.build f in
  let idom = Analysis.idom cfg in
  let table : (inst, value * int) Hashtbl.t = Hashtbl.create 64 in
  (* [replacement.(v)] is the earlier value [v] was folded into, or -1 *)
  let replacement = Array.make f.nvalues (-1) in
  let replaced = ref false in
  Array.iteri
    (fun bi b ->
       b.insts <-
         filter_sharing
           (fun (v, inst) ->
              match cse_key inst with
              | None -> true
              | Some key ->
                (match Hashtbl.find_opt table key with
                 | Some (v0, b0) when Analysis.dominates idom b0 bi ->
                   replacement.(v) <- v0;
                   replaced := true;
                   false
                 | _ ->
                   Hashtbl.replace table key (v, bi);
                   true))
           b.insts)
    cfg.Analysis.blocks;
  if !replaced then begin
    (* rewrite operands through the replacements; chains of equal
       expressions collapse in one pass *)
    let rec resolve op =
      match op with
      | Val v when replacement.(v) >= 0 -> resolve (Val replacement.(v))
      | Val _ | Const _ -> op
    in
    subst_operands resolve f
  end

(* ---------- loop-invariant code motion ---------- *)

(* [licm f] hoists pure instructions whose operands are loop-invariant
   into the loop preheader (the unique out-of-loop predecessor of the
   header).  Our pure instructions cannot trap (division by zero is
   defined), so speculative hoisting is safe. *)
let licm (f : func) : unit =
  let cfg = Analysis.build f in
  let idom = Analysis.idom cfg in
  let loops = Analysis.natural_loops cfg idom in
  List.iter
    (fun (l : Analysis.loop) ->
       let header = cfg.Analysis.blocks.(l.Analysis.header) in
       let preds_outside =
         List.filter
           (fun p -> not (Analysis.IntSet.mem p l.Analysis.body))
           cfg.Analysis.preds.(l.Analysis.header)
       in
       match preds_outside with
       | [ p ] ->
         let pre = cfg.Analysis.blocks.(p) in
         (* only a dedicated preheader (its sole successor is the header):
            hoisting into a block with other successors would execute the
            code on unrelated paths *)
         if successors pre.term = [ header.bid ] then begin
           (* values defined inside the loop *)
           let defined_in = Hashtbl.create 32 in
           Analysis.IntSet.iter
             (fun bi ->
                List.iter
                  (fun (v, _) -> Hashtbl.replace defined_in v ())
                  cfg.Analysis.blocks.(bi).insts)
             l.Analysis.body;
           let invariant_op = function
             | Const _ -> true
             | Val v -> not (Hashtbl.mem defined_in v)
           in
           (* iterate: hoisting one instruction can make another invariant.
              Hoisting extends live ranges across the whole loop, which is
              register pressure STRAIGHT pays for in frame slots — cap the
              number of hoisted values per loop. *)
           let budget = ref 6 in
           let again = ref true in
           while !again do
             again := false;
             Analysis.IntSet.iter
               (fun bi ->
                  let b = cfg.Analysis.blocks.(bi) in
                  let hoisted, kept =
                    List.partition
                      (fun (_, inst) ->
                         !budget > 0
                         && (match inst with
                             | Bin _ | Cmp _ | Frame_addr _ | Global_addr _ ->
                               true
                             | Load _ | Store _ | Call _ | Phi _ -> false)
                         && List.for_all invariant_op
                           (match inst with
                            | Bin (_, a, x) | Cmp (_, a, x) -> [ a; x ]
                            | _ -> [])
                         && (decr budget; true))
                      b.insts
                  in
                  if hoisted <> [] then begin
                    again := true;
                    pre.insts <- pre.insts @ hoisted;
                    b.insts <- kept;
                    List.iter
                      (fun (v, _) -> Hashtbl.remove defined_in v)
                      hoisted
                  end)
               l.Analysis.body
           done
         end
       | _ -> ())
    loops

(* ---------- the pass pipeline ---------- *)

(* Optimization levels, mirroring -O0/-O1/-O2. *)
type opt_level = O0 | O1 | O2

let opt_name = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(* A named IR-to-IR pass.  The name is what [run_passes ~validate] blames
   when the IR stops validating, so every entry in [pipeline] (and every
   test-injected pass) must carry a stable, human-meaningful name.  A pass
   reports nothing: [run_passes] sees for itself whether it changed the
   function. *)
type pass = {
  pass_name : string;
  pass_run : func -> unit;
}

let mk name run = { pass_name = name; pass_run = run }

(* [pipeline level] is the pass list [optimize_at]/[checked_at] iterate:
   O0 nothing, O1 folding + DCE + CFG cleanup, O2 additionally CSE and
   LICM.  Both back ends receive the same optimized IR (the paper
   compiles both targets with clang -O2). *)
let pipeline (level : opt_level) : pass list =
  match level with
  | O0 -> []
  | O1 ->
    [ mk "const-fold" const_fold; mk "dce" dce; mk "simplify-cfg" simplify_cfg ]
  | O2 ->
    [ mk "const-fold" const_fold; mk "cse" cse; mk "licm" licm;
      mk "dce" dce; mk "simplify-cfg" simplify_cfg ]

(* Bound on fixpoint rounds; in practice the pipeline converges in 2-3. *)
let max_rounds = 8

(* Everything of a function a pass may change: each block's id,
   instructions and terminator in block order, the value counter and the
   frame size ([name] and [nparams] are immutable). *)
type snapshot = {
  s_blocks : (block_id * (value * inst) list * terminator) list;
  s_nvalues : int;
  s_frame_bytes : int;
}

let snapshot (f : func) =
  { s_blocks = List.map (fun b -> (b.bid, b.insts, b.term)) f.blocks;
    s_nvalues = f.nvalues;
    s_frame_bytes = f.frame_bytes }

(* Structural equality with [compare], which returns at once on
   physically equal values: the passes keep the [insts] list of a block
   they leave alone, so an unchanged function costs O(blocks). *)
let unchanged (s : snapshot) (f : func) =
  let rec same_blocks sbs bs =
    match sbs, bs with
    | [], [] -> true
    | (bid, insts, term) :: sbs, b :: bs ->
      bid = b.bid && compare insts b.insts = 0 && compare term b.term = 0
      && same_blocks sbs bs
    | _ -> false
  in
  s.s_nvalues = f.nvalues && s.s_frame_bytes = f.frame_bytes
  && same_blocks s.s_blocks f.blocks

(* [run_passes ?validate passes f] iterates [passes] in order until a
   whole round changes nothing (or [max_rounds] is hit); each pass
   application is compared with a snapshot taken before it.  With
   [~validate:true], [Analysis.validate] runs on the input and after every
   pass application that changed the function (IR equal to IR already
   validated is not validated again), and a violation is re-raised with
   the culprit pass's name prepended — turning "the O2 pipeline
   miscompiles" into "cse broke the IR: ...". *)
let run_passes ?(validate = false) (passes : pass list) (f : func) : unit =
  let check blame =
    if validate then
      try Analysis.validate f
      with Diag.Error ({ code = Diag.Invalid_ir; _ } as d) ->
        raise (Diag.Error { d with message = blame ^ ": " ^ d.message })
  in
  check "before optimization";
  let apply p =
    let before = snapshot f in
    p.pass_run f;
    let changed = not (unchanged before f) in
    if changed then check (Printf.sprintf "pass %s broke the IR" p.pass_name);
    changed
  in
  let rec go n =
    if n > 0 then begin
      let changed =
        List.fold_left (fun acc p -> let c = apply p in acc || c) false passes
      in
      if changed then go (n - 1)
    end
  in
  go max_rounds

let optimize_at (level : opt_level) (f : func) : unit =
  run_passes (pipeline level) f

let optimize (f : func) : unit = optimize_at O2 f

(* Checked variants: same pipeline, SSA-validated after every pass. *)
let checked_at (level : opt_level) (f : func) : unit =
  run_passes ~validate:true (pipeline level) f

let checked (f : func) : unit = checked_at O2 f
