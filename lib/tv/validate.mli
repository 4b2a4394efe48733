(** Per-function symbolic translation validation for both back-ends.

    Both sides of a compilation — the SSA IR and the decoded, linked
    machine code — are symbolically executed into the {!Term} algebra
    over matched control-flow paths (blocks are located through the
    [".L<fn>_<bid>"] labels both back-ends keep in the image's symbol
    table).  Every observable must normalize to the same term: the
    return value, non-frame store address/value pairs in program order,
    call targets and argument vectors, and the machine-level return
    protocol (return address, SP restoration, riscv callee-saved
    registers).  The STRAIGHT side threads real register-distance
    semantics through a symbolic result ring, so distance bugs read the
    wrong term rather than slipping through.

    Loops are handled by joining states at merge blocks: lanes that
    differ but correlate to the same IR value become a shared
    [Join] leaf, everything else is havocked, and the finite lattice
    (concrete -> Join -> Dead) makes the fixpoint terminate.

    Disagreements become [Error] findings ([tv-retval], [tv-store],
    [tv-call], [tv-branch], [tv-cfg], [tv-event-order], [tv-ret-addr],
    [tv-sp], [tv-callee-saved], [tv-decode]).  A function that defeats
    the validator (budget exhaustion, missing labels, out-of-repertoire
    instructions) yields an explicit [Info] [tv-abstain] finding —
    never a silent pass.  Soundness caveat: frame slots are assumed
    disjoint from callee-reachable memory, matching both back-ends'
    stack discipline. *)

module Ir = Ssa_ir.Ir
module Image = Assembler.Image

type target = Straight | Riscv

val target_name : target -> string

type finding = Lint_report.finding

val validate_image :
  ?max_dist:int -> target:target -> Ir.program -> Image.t -> finding list
(** Validate a linked image against the (post-compilation) program it
    was produced from.  [prog] must be the exact IR the back-end
    compiled — i.e. after its in-place mutations — which is what
    {!validate_compiled} callers pass. *)

val validate_compiled :
  Straight_core.Compile.target -> Ir.program -> Image.t -> finding list
(** {!validate_image} of the image [Straight_core.Compile.backend t p]
    linked, against [p] as that back end left it. *)

val validate_straight :
  ?config:Straight_cc.Codegen.config -> Ir.program -> finding list
(** Compile an {!Ssa_ir.Ir.clone} with [config] (default
    {!Straight_cc.Codegen.default_config}), link, and validate.  The
    input program is left untouched. *)

val validate_riscv : Ir.program -> finding list

(** {1 Seeded mutation harness}

    Proof that the validator actually rejects broken code: compile a
    fresh program, apply one seeded single-instruction mutation of a
    real codegen-bug shape — flip an operand distance by one, drop an
    RMOV, swap the operands of a non-commutative ALU op or a store —
    relink, and validate.  [m_caught] records whether an [Error]
    finding names the mutated function. *)

type mutation = {
  m_desc : string;
  m_func : string;
  m_caught : bool;
  m_findings : finding list;
  m_images : (Image.t * Image.t) option;
      (** [(original, mutated)] linked images, when the mutation still
          assembled — the harness runs both on the ISS to separate
          genuine validator misses from semantically invisible
          mutations *)
}

val mutation_trial :
  ?config:Straight_cc.Codegen.config ->
  fresh:(unit -> Ir.program) -> seed:int -> unit -> mutation option
(** [None] when the generated program offers no mutation site.  Site
    selection is deterministic in [seed]. *)
