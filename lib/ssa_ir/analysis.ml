(* CFG analyses over the SSA IR: predecessors, reverse postorder,
   dominators (Cooper–Harvey–Kennedy), liveness with phi-aware edge
   semantics, and natural loops. *)

open Ir

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type cfg = {
  func : func;
  blocks : block array;            (* indexed by position in RPO *)
  index_of : int array;            (* block id -> RPO position, or -1 *)
  preds : int list array;          (* in RPO indices *)
  succs : int list array;
}

(* [build f] computes the CFG in reverse postorder.  Unreachable blocks are
   dropped (they cannot affect execution and break dominance reasoning).
   Block ids index plain arrays, so they must be non-negative; a
   terminator naming no block of [f] is [Invalid_argument] ([validate]
   diagnoses both before building). *)
let build (f : func) : cfg =
  let nids = 1 + List.fold_left (fun m b -> max m b.bid) (-1) f.blocks in
  let entry = entry_block f in
  (* an empty slot holds the entry, whose id is not the slot's *)
  let by_id = Array.make nids entry in
  List.iter
    (fun b ->
       if b.bid < 0 then
         invalid_arg (Printf.sprintf "%s: negative block id bb%d" f.name b.bid);
       by_id.(b.bid) <- b)
    f.blocks;
  let visited = Array.make nids false in
  let post = ref [] in
  let rec dfs bid =
    if bid < 0 || bid >= nids || by_id.(bid).bid <> bid then
      invalid_arg (Printf.sprintf "%s: no block bb%d" f.name bid);
    if not visited.(bid) then begin
      visited.(bid) <- true;
      let b = by_id.(bid) in
      (match b.term with
       | Ret _ -> ()
       | Br t -> dfs t
       | Cond_br (_, t1, t2) -> dfs t1; dfs t2);
      post := b :: !post
    end
  in
  dfs entry.bid;
  let blocks = Array.of_list !post in
  let n = Array.length blocks in
  let index_of = Array.make nids (-1) in
  Array.iteri (fun i b -> index_of.(b.bid) <- i) blocks;
  let preds = Array.make n [] and succs = Array.make n [] in
  Array.iteri
    (fun i b ->
       (* every successor of a reachable block is reachable *)
       let ss =
         match b.term with
         | Ret _ -> []
         | Br t -> [ index_of.(t) ]
         | Cond_br (_, t1, t2) -> [ index_of.(t1); index_of.(t2) ]
       in
       succs.(i) <- ss;
       List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    blocks;
  { func = f; blocks; index_of; preds; succs }

(* RPO index of block [bid], or -1 when it names no reachable block. *)
let find_index cfg bid =
  if bid >= 0 && bid < Array.length cfg.index_of then cfg.index_of.(bid) else -1

let block_index cfg bid =
  let i = find_index cfg bid in
  if i < 0 then invalid_arg (Printf.sprintf "block %d unreachable/unknown" bid);
  i

(* ---------- dominators ---------- *)

(* [idom cfg] returns the immediate-dominator array (RPO indices; entry maps
   to itself), using the Cooper–Harvey–Kennedy iterative algorithm. *)
let idom (cfg : cfg) : int array =
  let n = Array.length cfg.blocks in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while !f1 > !f2 do f1 := idom.(!f1) done;
      while !f2 > !f1 do f2 := idom.(!f2) done
    done;
    !f1
  in
  (* intersect the processed predecessors in list order; -1 if none is *)
  let rec meet acc = function
    | [] -> acc
    | p :: rest -> meet (if idom.(p) < 0 then acc else intersect acc p) rest
  in
  let rec first = function
    | [] -> -1
    | p :: rest -> if idom.(p) < 0 then first rest else meet p rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let new_idom = first cfg.preds.(i) in
      if new_idom >= 0 && idom.(i) <> new_idom then begin
        idom.(i) <- new_idom;
        changed := true
      end
    done
  done;
  idom

(* [dominates idom a b] — does RPO index [a] dominate [b]? *)
let dominates (idom : int array) a b =
  let rec up b = if b = a then true else if b = 0 then a = 0 else up idom.(b) in
  up b

(* ---------- liveness ---------- *)

type liveness = {
  live_in : IntSet.t array;   (* at block entry, phi defs NOT included *)
  live_out : IntSet.t array;  (* at block exit; includes phi inputs the
                                 successors consume from this block *)
  phi_defs : IntSet.t array;  (* values defined by phis of the block *)
}

(* [liveness cfg] computes per-block live sets with the usual SSA edge
   convention: a phi use is live-out of the corresponding predecessor only,
   and a phi def becomes live at the phi block itself (it materializes "on
   the edge", which for STRAIGHT means: in the predecessor's frame tail). *)
let liveness (cfg : cfg) : liveness =
  let n = Array.length cfg.blocks in
  let uses = Array.make n IntSet.empty in
  let defs = Array.make n IntSet.empty in
  let phi_defs = Array.make n IntSet.empty in
  (* phi_in.(p) = values consumed by successors' phis when coming from p *)
  let phi_in = Array.make n IntSet.empty in
  Array.iteri
    (fun i b ->
       let local_defs = ref IntSet.empty in
       let use u =
         if not (IntSet.mem u !local_defs) then uses.(i) <- IntSet.add u uses.(i)
       in
       List.iter
         (fun (v, inst) ->
            (match inst with
             | Phi ins ->
               phi_defs.(i) <- IntSet.add v phi_defs.(i);
               List.iter
                 (fun (pred_bid, op) ->
                    let p = find_index cfg pred_bid in
                    match op with
                    | Val u when p >= 0 -> phi_in.(p) <- IntSet.add u phi_in.(p)
                    | _ -> ())
                 ins
             | _ -> iter_uses use inst);
            local_defs := IntSet.add v !local_defs)
         b.insts;
       iter_term_uses use b.term;
       defs.(i) <- !local_defs)
    cfg.blocks;
  let live_in = Array.make n IntSet.empty in
  let live_out = Array.make n IntSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> IntSet.union acc (IntSet.diff live_in.(s) phi_defs.(s)))
          phi_in.(i) cfg.succs.(i)
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
  { live_in; live_out; phi_defs }

(* The STRAIGHT "entry frame" of a block: every value that must sit at a
   fixed distance when control enters — non-phi live-ins plus phi defs. *)
let entry_frame (lv : liveness) i : IntSet.t =
  IntSet.union lv.live_in.(i) lv.phi_defs.(i)

(* ---------- natural loops ---------- *)

type loop = {
  header : int;               (* RPO index *)
  body : IntSet.t;            (* RPO indices, header included *)
  exits : IntSet.t;           (* blocks outside reached from the body *)
}

(* [natural_loops cfg idom] finds one loop per back edge (loops sharing a
   header are merged). *)
let natural_loops (cfg : cfg) (idom : int array) : loop list =
  let n = Array.length cfg.blocks in
  let loops = Hashtbl.create 8 in
  for b = 0 to n - 1 do
    List.iter
      (fun s ->
         if dominates idom s b then begin
           (* back edge b -> s *)
           let body = ref (IntSet.of_list [ s; b ]) in
           let stack = ref (if b = s then [] else [ b ]) in
           let rec walk () =
             match !stack with
             | [] -> ()
             | x :: rest ->
               stack := rest;
               List.iter
                 (fun p ->
                    if not (IntSet.mem p !body) then begin
                      body := IntSet.add p !body;
                      stack := p :: !stack
                    end)
                 cfg.preds.(x);
               walk ()
           in
           walk ();
           let prev =
             match Hashtbl.find_opt loops s with
             | Some set -> set
             | None -> IntSet.empty
           in
           Hashtbl.replace loops s (IntSet.union prev !body)
         end)
      cfg.succs.(b)
  done;
  (* the result's order is this table's fold order, which licm's per-loop
     hoisting budget sees *)
  Hashtbl.fold
    (fun header body acc ->
       let exits =
         IntSet.fold
           (fun b acc ->
              List.fold_left
                (fun acc s ->
                   if IntSet.mem s body then acc else IntSet.add s acc)
                acc cfg.succs.(b))
           body IntSet.empty
       in
       { header; body; exits } :: acc)
    loops []

(* ---------- validation ---------- *)

let fail fmt = Diag.error Diag.Invalid_ir fmt

(* Def sites in [validate]: a value-indexed array of RPO block indices, or
   one of these two markers. *)
let undefined = -2
let param = -1

(* [validate f] checks the SSA invariants we rely on: well-formed CFG
   (every terminator targets an existing block), single assignment with
   value ids inside [0, nvalues), defs dominate uses, phi arms match
   predecessors and name blocks of [f], no phis in the entry block.  Every
   violation raises a [Diag.Invalid_ir] error (never
   [Not_found]/[Invalid_argument]), so callers can classify a broken pass
   uniformly. *)
let validate (f : func) : unit =
  if f.blocks = [] then fail "%s: function has no blocks" f.name;
  (* structural checks first: [build] itself assumes block ids index an
     array and terminator targets exist, so both are diagnosed before the
     CFG walk *)
  let nids = 1 + List.fold_left (fun m b -> max m b.bid) (-1) f.blocks in
  let exists = Array.make nids false in
  List.iter
    (fun b ->
       if b.bid < 0 then fail "%s: negative block id bb%d" f.name b.bid;
       if exists.(b.bid) then fail "%s: duplicate block id bb%d" f.name b.bid;
       exists.(b.bid) <- true)
    f.blocks;
  let is_block bid = bid >= 0 && bid < nids && exists.(bid) in
  List.iter
    (fun b ->
       List.iter
         (fun t ->
            if not (is_block t) then
              fail "%s: bb%d terminator targets nonexistent block bb%d"
                f.name b.bid t)
         (successors b.term))
    f.blocks;
  let cfg = build f in
  let idom_arr = idom cfg in
  let nv = max f.nvalues f.nparams in
  let def_block = Array.make nv undefined and def_pos = Array.make nv 0 in
  Array.fill def_block 0 f.nparams param;
  Array.iteri
    (fun i b ->
       List.iteri
         (fun pos (v, inst) ->
            if v < 0 || v >= f.nvalues then
              fail "%s: value id %%%d outside [0, %d)" f.name v f.nvalues;
            if def_block.(v) <> undefined then
              fail "%s: value %%%d defined twice" f.name v;
            def_block.(v) <- i;
            def_pos.(v) <- pos;
            (match inst with
             | Phi [] -> fail "%s: phi %%%d has no arms" f.name v
             | Phi _ when i = 0 ->
               (* the entry has an implicit in-edge from the caller that no
                  phi arm can name, so entry phis are meaningless *)
               fail "%s: phi %%%d in the entry block" f.name v
             | Phi ins ->
               let arm_ids = List.map fst ins in
               let rec dup = function
                 | a :: (b :: _ as t) -> if a = b then Some a else dup t
                 | _ -> None
               in
               (match dup (List.sort compare arm_ids) with
                | Some d ->
                  fail "%s: phi %%%d has two arms for bb%d" f.name v d
                | None -> ());
               let pred_ids =
                 List.map (fun p -> cfg.blocks.(p).bid) cfg.preds.(i)
               in
               List.iter
                 (fun p ->
                    if not (List.mem p arm_ids) then
                      fail "%s: phi %%%d has no arm for predecessor bb%d of bb%d"
                        f.name v p cfg.blocks.(i).bid)
                 pred_ids;
               (* an arm naming a reachable non-predecessor is a real
                  disagreement with the CFG; an arm naming an unreachable
                  block is the legal transient between a branch fold and
                  the next unreachable-block sweep (execution can never
                  take that edge); an arm naming no block at all is not *)
               List.iter
                 (fun a ->
                    if not (is_block a) then
                      fail "%s: phi %%%d arm bb%d names no block of the function"
                        f.name v a;
                    if not (List.mem a pred_ids) && find_index cfg a >= 0 then
                      fail "%s: phi %%%d arm bb%d is not a predecessor of bb%d"
                        f.name v a cfg.blocks.(i).bid)
                 arm_ids
             | _ -> ()))
         b.insts)
    cfg.blocks;
  (* defs dominate uses *)
  let def_of u = if u < 0 || u >= nv then undefined else def_block.(u) in
  let check_use ~user_block ~user_pos v =
    let db = def_of v in
    if db = undefined then fail "%s: use of undefined value %%%d" f.name v
    else if db = param then ()
    else if db = user_block then begin
      if def_pos.(v) >= user_pos then
        fail "%s: value %%%d used at or before its definition" f.name v
    end
    else if not (dominates idom_arr db user_block) then
      fail "%s: def of %%%d (bb idx %d) does not dominate use (bb idx %d)"
        f.name v db user_block
  in
  Array.iteri
    (fun i b ->
       let pos = ref 0 and seen_nonphi = ref false and misplaced = ref false in
       List.iter
         (fun (_, inst) ->
            (match inst with
             | Phi ins ->
               if !seen_nonphi then misplaced := true;
               List.iter
                 (fun (pred_bid, op) ->
                    match op with
                    | Const _ -> ()
                    | Val u ->
                      (* arms from unreachable blocks carry no dataflow *)
                      let p = find_index cfg pred_bid in
                      if p >= 0 then begin
                        (* the input must be available at the end of pred *)
                        let db = def_of u in
                        if db = undefined then
                          fail "%s: phi input %%%d undefined" f.name u
                        else if db <> param && not (dominates idom_arr db p)
                        then
                          fail "%s: phi input %%%d does not dominate pred"
                            f.name u
                      end)
                 ins
             | _ ->
               seen_nonphi := true;
               iter_uses (check_use ~user_block:i ~user_pos:!pos) inst);
            incr pos)
         b.insts;
       iter_term_uses (check_use ~user_block:i ~user_pos:!pos) b.term;
       (* phis must be a prefix of the block *)
       if !misplaced then fail "%s: phi after non-phi in bb%d" f.name b.bid)
    cfg.blocks
