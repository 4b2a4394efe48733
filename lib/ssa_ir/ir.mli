(** SSA-form intermediate representation — the role LLVM IR plays in the
    paper (Section IV-A): basic blocks, phi nodes, explicit memory
    operations.  Every value is a 32-bit integer (the evaluation is a
    32-bit integer-only setting, Section V-A). *)

type value = int
(** Dense per-function SSA value id; ids [0 .. nparams-1] are the
    parameters. *)

type block_id = int

type binop =
  | Add | Sub | Mul | Div | Divu | Rem | Remu
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu

type operand =
  | Const of int32
  | Val of value

(** Non-terminator instructions.  Every instruction defines a value; for
    [Store] the defined value is the stored value — mirroring STRAIGHT's
    "every instruction occupies one destination register" and keeping the
    back ends uniform. *)
type inst =
  | Bin of binop * operand * operand
  | Cmp of cmpop * operand * operand
  | Load of operand * int              (** address operand + byte offset *)
  | Store of operand * operand * int   (** value, address, byte offset *)
  | Call of string * operand list
  | Frame_addr of int                  (** frame base + byte offset *)
  | Global_addr of string              (** address of a data symbol *)
  | Phi of (block_id * operand) list   (** one arm per predecessor *)

type terminator =
  | Ret of operand
  | Br of block_id
  | Cond_br of operand * block_id * block_id
      (** if the operand is nonzero, the first target *)

type block = {
  bid : block_id;
  mutable insts : (value * inst) list;  (** program order; phis first *)
  mutable term : terminator;
}

type func = {
  name : string;
  nparams : int;
  mutable nvalues : int;         (** next fresh value id *)
  mutable blocks : block list;   (** entry block first *)
  mutable frame_bytes : int;     (** local (alloca) stack-frame area *)
}

(** One initialized data symbol: [words] then [extra_bytes] of zeros. *)
type data_def = { sym : string; words : int32 list; extra_bytes : int }

type program = {
  funcs : func list;
  data : data_def list;
}

val entry_block : func -> block
val block : func -> block_id -> block
val fresh_value : func -> value

val clone : program -> program
(** Fresh function and block records over the shared, immutable
    instructions and data: the back ends mutate the IR they compile, so
    each compile of one program gets its own clone. *)

val successors : terminator -> block_id list
val operand_value : operand -> value option

val inst_uses : inst -> value list
(** Values read by an instruction (multiplicity preserved). *)

val term_uses : terminator -> value list

val iter_uses : (value -> unit) -> inst -> unit
(** [iter_uses g i] applies [g] to {!inst_uses}[ i] in order, without
    building the list. *)

val iter_term_uses : (value -> unit) -> terminator -> unit
(** Likewise for {!term_uses}. *)

val is_phi : inst -> bool

val is_pure : inst -> bool
(** Pure instructions can be folded, dead-code-eliminated, and sunk;
    division counts as pure because our semantics define division by
    zero. *)

val has_side_effect : inst -> bool

val eval_binop : binop -> int32 -> int32 -> int32
val eval_cmpop : cmpop -> int32 -> int32 -> bool

val binop_name : binop -> string
val cmpop_name : cmpop -> string
val pp_operand : Format.formatter -> operand -> unit
val pp_inst : Format.formatter -> value * inst -> unit
val pp_term : Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit
val func_to_string : func -> string
