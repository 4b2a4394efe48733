(** IR-to-IR passes: constant folding with algebraic simplification, dead
    code elimination, CFG cleanup, and critical-edge splitting (required
    by both back ends before phi lowering / distance fixing).

    All passes mutate the function in place and preserve SSA validity.  A
    block a pass leaves alone keeps its [insts] list physically, which
    makes {!run_passes}' change check cheap. *)

val const_fold : Ir.func -> unit
(** Rewrite through known constants, fold pure instructions and constant
    conditional branches (pruning the dropped targets' phi arms). *)

val dce : Ir.func -> unit
(** Remove pure instructions whose results are never (transitively)
    used. *)

val remove_unreachable : Ir.func -> unit
(** Drop blocks unreachable from the entry and prune the phi arms that
    referenced them. *)

val merge_blocks : Ir.func -> unit
(** Merge straight-line pairs [b -> s] where [s]'s only predecessor is
    [b]. *)

val simplify_cfg : Ir.func -> unit

val cse : Ir.func -> unit
(** Dominator-scoped common-subexpression elimination over pure
    instructions (commutative operands normalized). *)

val licm : Ir.func -> unit
(** Hoist pure loop-invariant instructions into the loop preheader.
    Speculative hoisting is safe because no pure instruction can trap
    (division by zero is defined). *)

(** Optimization levels, mirroring -O0/-O1/-O2. *)
type opt_level = O0 | O1 | O2

val opt_name : opt_level -> string
(** ["O0"], ["O1"] or ["O2"]: the label reports, checkpoints and sweep
    records carry. *)

(** A named IR-to-IR pass; the name is what checked runs blame when the
    IR stops validating.  Whether a run changed the function is
    {!run_passes}' to find out, not the pass's to report. *)
type pass = {
  pass_name : string;
  pass_run : Ir.func -> unit;
}

val pipeline : opt_level -> pass list
(** The pass list the fixpoint iterates: [O0] nothing, [O1] folding +
    DCE + CFG cleanup, [O2] additionally CSE and LICM. *)

val run_passes : ?validate:bool -> pass list -> Ir.func -> unit
(** Iterate a pass list in order until a whole round changes nothing
    (bounded).  A pass application changed the function iff a snapshot
    taken before it — each block's id, instructions and terminator, the
    block order, [nvalues] and [frame_bytes] — differs structurally
    afterwards.  With [~validate:true], {!Analysis.validate} runs on the
    input and after every pass application that changed the function; a
    violation (a [Diag.Error] with code [Invalid_ir]) is re-raised with
    the culprit pass's name prepended to its message.  Public so tests
    can inject a deliberately broken pass and check it is blamed by
    name. *)

val optimize_at : opt_level -> Ir.func -> unit
(** [run_passes (pipeline level)]. *)

val optimize : Ir.func -> unit
(** [optimize = optimize_at O2].  Both back ends receive the same
    optimized IR — the paper compiles with clang -O2 for both targets, so
    RAW-vs-RE+ differences come from the STRAIGHT-specific back end
    only. *)

val checked_at : opt_level -> Ir.func -> unit
(** [run_passes ~validate:true (pipeline level)]: the same pipeline with
    pass-by-pass SSA validation, so a miscompile names the exact pass. *)

val checked : Ir.func -> unit
(** [checked = checked_at O2]. *)

val split_critical_edges : Ir.func -> unit
(** Insert an empty block on every edge [P -> S] where [P] has several
    successors and [S] several predecessors.  STRAIGHT needs this to give
    every merge predecessor its own frame tail; RISC-V to place phi
    moves. *)

val layout_rpo : Ir.func -> unit
(** Order [f.blocks] in reverse postorder (entry first), dropping
    unreachable blocks; the back ends use this as their layout order. *)
