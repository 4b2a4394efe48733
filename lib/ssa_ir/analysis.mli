(** CFG analyses over the SSA IR: reverse postorder, dominators
    (Cooper–Harvey–Kennedy), phi-aware liveness, natural loops, and SSA
    validation. *)

module IntSet : Set.S with type elt = int
module IntMap : Map.S with type key = int

type cfg = {
  func : Ir.func;
  blocks : Ir.block array;             (** indexed by RPO position *)
  index_of : int array;
      (** block id -> RPO position, [-1] for an unreachable block; ids
          past the largest block id are out of range: use
          {!find_index} *)
  preds : int list array;              (** RPO indices *)
  succs : int list array;
}

val build : Ir.func -> cfg
(** Compute the CFG in reverse postorder (depth-first, successors in
    terminator order); unreachable blocks are dropped.
    @raise Invalid_argument on a negative block id or a terminator that
    targets no block ({!validate} reports both as a [Diag.Invalid_ir]
    error). *)

val block_index : cfg -> Ir.block_id -> int
(** @raise Invalid_argument for unknown/unreachable blocks. *)

val find_index : cfg -> Ir.block_id -> int
(** The RPO index of a reachable block, [-1] for any other id. *)

val idom : cfg -> int array
(** Immediate-dominator array over RPO indices (the entry maps to
    itself). *)

val dominates : int array -> int -> int -> bool
(** [dominates idom a b]: does RPO index [a] dominate [b]? *)

type liveness = {
  live_in : IntSet.t array;   (** at block entry; phi defs NOT included *)
  live_out : IntSet.t array;  (** at block exit; includes the phi inputs
                                  consumed by successors from this block *)
  phi_defs : IntSet.t array;
}

val liveness : cfg -> liveness
(** Per-block live sets with the usual SSA edge convention: a phi use is
    live-out of the corresponding predecessor only, and a phi def
    materializes at its block (for STRAIGHT: in the predecessors' frame
    tails). *)

val entry_frame : liveness -> int -> IntSet.t
(** The STRAIGHT "entry frame" of a block: every value that must sit at a
    fixed distance when control enters — non-phi live-ins plus phi defs. *)

type loop = {
  header : int;               (** RPO index *)
  body : IntSet.t;            (** RPO indices, header included *)
  exits : IntSet.t;           (** blocks outside, reached from the body *)
}

val natural_loops : cfg -> int array -> loop list
(** One loop per back edge; loops sharing a header are merged. *)

val validate : Ir.func -> unit
(** Check the SSA invariants the back ends rely on: block ids are
    distinct and non-negative, every terminator targets an existing
    block, single assignment with value ids inside [0, nvalues), defs
    dominate uses, phi arms match predecessors and name blocks of the
    function (an arm from an unreachable block is tolerated), no phis
    (and no empty phis) in the entry block, phis form a block prefix.
    Every violation raises the same error — never [Not_found] or
    [Invalid_argument] — so a broken pass is classified uniformly.
    @raise Diag.Error with code [Invalid_ir] and a diagnostic
    otherwise. *)
