(* IR-to-IR passes: constant folding with algebraic simplification, dead
   code elimination, CFG cleanup, and critical-edge splitting (required by
   both back ends before phi lowering / distance fixing). *)

open Ir
module IntSet = Set.Make (Int)

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
   instructions; returns [true] if anything changed. *)
let const_fold (f : func) : bool =
  let known : (value, int32) Hashtbl.t = Hashtbl.create 32 in
  let changed = ref false in
  let subst op =
    match op with
    | Val v ->
      (match Hashtbl.find_opt known v with
       | Some c -> changed := true; Const c
       | None -> op)
    | Const _ -> op
  in
  (* two sweeps so constants discovered late propagate into earlier blocks
     (phis); callers loop this pass to a fixpoint anyway *)
  for _sweep = 1 to 2 do
    List.iter
      (fun b ->
         b.insts <-
           List.map
             (fun (v, inst) ->
                let inst =
                  match inst with
                  | Bin (op, a, x) -> Bin (op, subst a, subst x)
                  | Cmp (op, a, x) -> Cmp (op, subst a, subst x)
                  | Load (a, o) -> Load (subst a, o)
                  | Store (x, a, o) -> Store (subst x, subst a, o)
                  | Call (g, args) -> Call (g, List.map subst args)
                  | Phi ins -> Phi (List.map (fun (p, o) -> (p, subst o)) ins)
                  | Frame_addr _ | Global_addr _ -> inst
                in
                (match inst with
                 | Bin (op, Const a, Const x) ->
                   Hashtbl.replace known v (eval_binop op a x)
                 | Cmp (op, Const a, Const x) ->
                   Hashtbl.replace known v (if eval_cmpop op a x then 1l else 0l)
                 | Bin (op, a, x) ->
                   (match fold_identities op a x with
                    | Some (`Const c) -> Hashtbl.replace known v c
                    | Some (`Op (Const c)) -> Hashtbl.replace known v c
                    | Some (`Op (Val _)) | None -> ())
                 | Phi ins ->
                   (* a phi whose inputs are all the same constant *)
                   (match ins with
                    | (_, Const c) :: rest
                      when List.for_all (fun (_, o) -> o = Const c) rest ->
                      Hashtbl.replace known v c
                    | _ -> ())
                 | _ -> ());
                (v, inst))
             b.insts;
         b.term <-
           (match b.term with
            | Ret op -> Ret (subst op)
            | Br t -> Br t
            | Cond_br (c, t1, t2) ->
              (match subst c with
               | Const c ->
                 changed := true;
                 let kept = if c <> 0l then t1 else t2 in
                 let dropped = if c <> 0l then t2 else t1 in
                 (* the dropped target loses this predecessor: prune arms *)
                 if dropped <> kept then
                   List.iter
                     (fun tb ->
                        if tb.bid = dropped then
                          tb.insts <-
                            List.map
                              (fun (v, inst) ->
                                 match inst with
                                 | Phi arms ->
                                   (v, Phi (List.filter
                                              (fun (p, _) -> p <> b.bid)
                                              arms))
                                 | _ -> (v, inst))
                              tb.insts)
                     f.blocks;
                 Br kept
               | c -> Cond_br (c, t1, t2))))
      f.blocks
  done;
  (* Replace folded definitions by trivial constants so DCE can drop them
     once all uses are rewritten.  Folded phis keep their shape: [subst]
     already rewrote every arm to the constant, and turning one into a
     [Bin] mid-block would put later phis after a non-phi. *)
  List.iter
    (fun b ->
       b.insts <-
         List.map
           (fun (v, inst) ->
              match Hashtbl.find_opt known v, inst with
              | Some c, (Bin _ | Cmp _) -> (v, Bin (Add, Const c, Const 0l))
              | _ -> (v, inst))
           b.insts)
    f.blocks;
  (* rewrite uses of identity-folded values: x + 0 -> x *)
  let copy_of : (value, operand) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
       List.iter
         (fun (v, inst) ->
            match inst with
            | Bin (op, a, x) ->
              (match fold_identities op a x with
               | Some (`Op o) -> Hashtbl.replace copy_of v o
               | _ -> ())
            | Phi [ (_, o) ] -> Hashtbl.replace copy_of v o
            | _ -> ())
         b.insts)
    f.blocks;
  if Hashtbl.length copy_of > 0 then begin
    let rec resolve o =
      match o with
      | Val v ->
        (match Hashtbl.find_opt copy_of v with
         | Some o' -> resolve o'
         | None -> o)
      | Const _ -> o
    in
    let subst2 o =
      let o' = resolve o in
      if o' <> o then changed := true;
      o'
    in
    List.iter
      (fun b ->
         b.insts <-
           List.map
             (fun (v, inst) ->
                let inst =
                  match inst with
                  | Bin (op, a, x) -> Bin (op, subst2 a, subst2 x)
                  | Cmp (op, a, x) -> Cmp (op, subst2 a, subst2 x)
                  | Load (a, o) -> Load (subst2 a, o)
                  | Store (x, a, o) -> Store (subst2 x, subst2 a, o)
                  | Call (g, args) -> Call (g, List.map subst2 args)
                  | Phi ins -> Phi (List.map (fun (p, o) -> (p, subst2 o)) ins)
                  | Frame_addr _ | Global_addr _ -> inst
                in
                (v, inst))
             b.insts;
         b.term <-
           (match b.term with
            | Ret op -> Ret (subst2 op)
            | Br t -> Br t
            | Cond_br (c, t1, t2) -> Cond_br (subst2 c, t1, t2)))
      f.blocks
  end;
  !changed

(* ---------- dead code elimination ---------- *)

(* [dce f] removes pure instructions whose results are never used. *)
let dce (f : func) : bool =
  let used = Hashtbl.create 64 in
  let mark op = match op with Val v -> Hashtbl.replace used v () | Const _ -> () in
  let mark_inst inst = List.iter (fun v -> Hashtbl.replace used v ()) (inst_uses inst) in
  (* seed: side effects and terminators *)
  List.iter
    (fun b ->
       List.iter (fun (_, inst) -> if has_side_effect inst then mark_inst inst) b.insts;
       List.iter (fun v -> Hashtbl.replace used v ()) (term_uses b.term);
       ignore mark)
    f.blocks;
  (* propagate backwards to a fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
         List.iter
           (fun (v, inst) ->
              if Hashtbl.mem used v && not (has_side_effect inst) then
                List.iter
                  (fun u ->
                     if not (Hashtbl.mem used u) then begin
                       Hashtbl.replace used u ();
                       changed := true
                     end)
                  (inst_uses inst))
           b.insts)
      f.blocks
  done;
  let removed = ref false in
  List.iter
    (fun b ->
       let keep, drop =
         List.partition
           (fun (v, inst) -> has_side_effect inst || Hashtbl.mem used v)
           b.insts
       in
       if drop <> [] then removed := true;
       b.insts <- keep)
    f.blocks;
  !removed

(* ---------- CFG cleanup ---------- *)

(* Remove blocks unreachable from the entry and prune phi arms that
   referenced them. *)
let remove_unreachable (f : func) : bool =
  let cfg = Analysis.build f in
  let reachable = Hashtbl.create 16 in
  Array.iter (fun b -> Hashtbl.replace reachable b.bid ()) cfg.Analysis.blocks;
  let before = List.length f.blocks in
  f.blocks <- List.filter (fun b -> Hashtbl.mem reachable b.bid) f.blocks;
  List.iter
    (fun b ->
       b.insts <-
         List.map
           (fun (v, inst) ->
              match inst with
              | Phi ins ->
                let ins = List.filter (fun (p, _) -> Hashtbl.mem reachable p) ins in
                (match ins with
                 | [ (_, op) ] -> (v, Bin (Add, op, Const 0l))
                 | _ -> (v, Phi ins))
              | _ -> (v, inst))
           b.insts)
    f.blocks;
  List.length f.blocks <> before

(* Merge a straight-line pair b -> s when s's only predecessor is b. *)
let merge_blocks (f : func) : bool =
  let cfg = Analysis.build f in
  let n = Array.length cfg.Analysis.blocks in
  let merged = ref false in
  let removed = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let b = cfg.Analysis.blocks.(i) in
    if not (Hashtbl.mem removed b.bid) then
      match b.term with
      | Br t when t <> b.bid ->
        let ti = Analysis.block_index cfg t in
        let s = cfg.Analysis.blocks.(ti) in
        if cfg.Analysis.preds.(ti) = [ i ] && not (Hashtbl.mem removed s.bid)
           && not (List.exists (fun (_, inst) -> is_phi inst) s.insts)
           && s.bid <> (entry_block f).bid
        then begin
          b.insts <- b.insts @ s.insts;
          b.term <- s.term;
          (* successors of s now have predecessor b instead of s *)
          List.iter
            (fun b' ->
               b'.insts <-
                 List.map
                   (fun (v, inst) ->
                      match inst with
                      | Phi ins ->
                        (v, Phi (List.map
                                   (fun (p, o) -> ((if p = s.bid then b.bid else p), o))
                                   ins))
                      | _ -> (v, inst))
                   b'.insts)
            f.blocks;
          Hashtbl.replace removed s.bid ();
          merged := true
        end
      | _ -> ()
  done;
  if !merged then
    f.blocks <- List.filter (fun b -> not (Hashtbl.mem removed b.bid)) f.blocks;
  !merged

let simplify_cfg (f : func) : bool =
  let a = remove_unreachable f in
  let b = merge_blocks f in
  a || b

(* forward declaration placeholder: [optimize] is defined after cse/licm
   at the end of this file. *)

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
  let npreds = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
       Hashtbl.replace npreds b.bid (List.length cfg.Analysis.preds.(i)))
    cfg.Analysis.blocks;
  let new_blocks = ref [] in
  List.iter
    (fun b ->
       match b.term with
       | Cond_br (c, t1, t2) ->
         let maybe_split target =
           if (match Hashtbl.find_opt npreds target with
               | Some n -> n > 1
               | None -> false)
           then begin
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
  ignore (remove_unreachable f);
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
   by an identical earlier one whose definition block dominates it. *)
let cse (f : func) : bool =
  let cfg = Analysis.build f in
  let idom = Analysis.idom cfg in
  let table : (inst, value * int) Hashtbl.t = Hashtbl.create 64 in
  let replacement : (value, value) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun bi b ->
       b.insts <-
         List.filter
           (fun (v, inst) ->
              (* rewrite operands through earlier replacements so chains of
                 equal expressions collapse in one pass *)
              match cse_key inst with
              | None -> true
              | Some key ->
                (match Hashtbl.find_opt table key with
                 | Some (v0, b0) when Analysis.dominates idom b0 bi ->
                   Hashtbl.replace replacement v v0;
                   false
                 | _ ->
                   Hashtbl.replace table key (v, bi);
                   true))
           b.insts)
    cfg.Analysis.blocks;
  if Hashtbl.length replacement = 0 then false
  else begin
    let rec resolve op =
      match op with
      | Val v ->
        (match Hashtbl.find_opt replacement v with
         | Some v' -> resolve (Val v')
         | None -> op)
      | Const _ -> op
    in
    List.iter
      (fun b ->
         b.insts <-
           List.map
             (fun (v, inst) ->
                ( v,
                  match inst with
                  | Bin (op, a, x) -> Bin (op, resolve a, resolve x)
                  | Cmp (op, a, x) -> Cmp (op, resolve a, resolve x)
                  | Load (a, o) -> Load (resolve a, o)
                  | Store (x, a, o) -> Store (resolve x, resolve a, o)
                  | Call (g, args) -> Call (g, List.map resolve args)
                  | Phi arms -> Phi (List.map (fun (p, o) -> (p, resolve o)) arms)
                  | Frame_addr _ | Global_addr _ -> inst ))
             b.insts;
         b.term <-
           (match b.term with
            | Ret op -> Ret (resolve op)
            | Br t -> Br t
            | Cond_br (c, t1, t2) -> Cond_br (resolve c, t1, t2)))
      f.blocks;
    true
  end

(* ---------- loop-invariant code motion ---------- *)

(* [licm f] hoists pure instructions whose operands are loop-invariant
   into the loop preheader (the unique out-of-loop predecessor of the
   header).  Our pure instructions cannot trap (division by zero is
   defined), so speculative hoisting is safe. *)
let licm (f : func) : bool =
  let cfg = Analysis.build f in
  let idom = Analysis.idom cfg in
  let loops = Analysis.natural_loops cfg idom in
  let changed = ref false in
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
                    changed := true;
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
    loops;
  !changed


(* ---------- the pass pipeline ---------- *)

(* Optimization levels, mirroring -O0/-O1/-O2. *)
type opt_level = O0 | O1 | O2

let opt_name = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(* A named IR-to-IR pass.  The name is what [run_passes ~validate] blames
   when the IR stops validating, so every entry in [pipeline] (and every
   test-injected pass) must carry a stable, human-meaningful name. *)
type pass = {
  pass_name : string;
  pass_run : func -> bool;      (* true iff the function changed *)
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

(* [run_passes ?validate passes f] iterates [passes] in order until a
   whole round changes nothing (or [max_rounds] is hit).  With
   [~validate:true], [Analysis.validate] runs before the first pass and
   after every pass application, and a violation is re-raised with the
   culprit pass's name prepended — turning "the O2 pipeline miscompiles"
   into "cse broke the IR: ...". *)
let run_passes ?(validate = false) (passes : pass list) (f : func) : unit =
  let check blame =
    if validate then
      try Analysis.validate f
      with Analysis.Invalid_ir msg ->
        raise (Analysis.Invalid_ir (Printf.sprintf "%s: %s" blame msg))
  in
  check "before optimization";
  let rec go n =
    if n > 0 then begin
      let changed =
        List.fold_left
          (fun acc p ->
             let c = p.pass_run f in
             check (Printf.sprintf "pass %s broke the IR" p.pass_name);
             acc || c)
          false passes
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
