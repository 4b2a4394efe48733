(* SSA-form intermediate representation.

   This plays the role LLVM IR plays in the paper (Section IV-A): an
   SSA-formed program with basic blocks, phi nodes and explicit memory
   operations, from which both the STRAIGHT and the RISC-V back ends
   generate code.  Every value is a 32-bit integer (the evaluation is a
   32-bit, integer-only setting, Section V-A). *)

type value = int
(** Dense per-function SSA value id. *)

type block_id = int

type binop =
  | Add | Sub | Mul | Div | Divu | Rem | Remu
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu

type operand =
  | Const of int32
  | Val of value

(* Non-terminator instructions.  Every instruction defines a value (for
   [Store] the defined value is unused — this mirrors STRAIGHT's "every
   instruction occupies one destination register" and keeps the backend
   uniform). *)
type inst =
  | Bin of binop * operand * operand
  | Cmp of cmpop * operand * operand
  | Load of operand * int              (* address operand + byte offset *)
  | Store of operand * operand * int   (* value, address, byte offset *)
  | Call of string * operand list
  | Frame_addr of int                  (* frame_base + byte offset (alloca) *)
  | Global_addr of string              (* address of a data symbol *)
  | Phi of (block_id * operand) list   (* one entry per predecessor *)

type terminator =
  | Ret of operand
  | Br of block_id
  | Cond_br of operand * block_id * block_id  (* if <> 0 then b1 else b2 *)

type block = {
  bid : block_id;
  mutable insts : (value * inst) list;  (* in program order; phis first *)
  mutable term : terminator;
}

type func = {
  name : string;
  nparams : int;                 (* params are values 0 .. nparams-1 *)
  mutable nvalues : int;         (* next fresh value id *)
  mutable blocks : block list;   (* entry block first *)
  mutable frame_bytes : int;     (* local (alloca) area of the stack frame *)
}

(* A whole program: functions plus initialized global data. *)
type data_def = { sym : string; words : int32 list; extra_bytes : int }

type program = {
  funcs : func list;
  data : data_def list;
}

let entry_block f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "entry_block: empty function"

let block f bid =
  match List.find_opt (fun b -> b.bid = bid) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "block %d not found in %s" bid f.name)

let fresh_value f =
  let v = f.nvalues in
  f.nvalues <- v + 1;
  v

(* Passes and back ends mutate only through record fields. *)
let clone (p : program) : program =
  let block b = { bid = b.bid; insts = b.insts; term = b.term } in
  let func f = { f with blocks = List.map block f.blocks } in
  { p with funcs = List.map func p.funcs }

let successors term =
  match term with
  | Ret _ -> []
  | Br b -> [ b ]
  | Cond_br (_, b1, b2) -> [ b1; b2 ]

let operand_value = function
  | Const _ -> None
  | Val v -> Some v

(* Values read by an instruction (phi handled separately by analyses). *)
let inst_uses = function
  | Bin (_, a, b) | Cmp (_, a, b) -> List.filter_map operand_value [ a; b ]
  | Load (a, _) -> List.filter_map operand_value [ a ]
  | Store (v, a, _) -> List.filter_map operand_value [ v; a ]
  | Call (_, args) -> List.filter_map operand_value args
  | Frame_addr _ | Global_addr _ -> []
  | Phi ins -> List.filter_map (fun (_, op) -> operand_value op) ins

let term_uses = function
  | Ret op -> List.filter_map operand_value [ op ]
  | Br _ -> []
  | Cond_br (c, _, _) -> List.filter_map operand_value [ c ]

(* The same values in the same order, without building the list. *)
let iter_operand g = function Val v -> g v | Const _ -> ()

let iter_uses g = function
  | Bin (_, a, b) | Cmp (_, a, b) | Store (a, b, _) ->
    iter_operand g a;
    iter_operand g b
  | Load (a, _) -> iter_operand g a
  | Call (_, args) -> List.iter (iter_operand g) args
  | Frame_addr _ | Global_addr _ -> ()
  | Phi ins -> List.iter (fun (_, op) -> iter_operand g op) ins

let iter_term_uses g = function
  | Ret op | Cond_br (op, _, _) -> iter_operand g op
  | Br _ -> ()

let is_phi = function Phi _ -> true | _ -> false

(* Pure instructions can be folded, eliminated when dead, and sunk by the
   RE+ optimizer; loads/stores/calls cannot. *)
let is_pure = function
  | Bin ((Div | Divu | Rem | Remu), _, _) ->
    true (* our semantics define division by zero, so it cannot trap *)
  | Bin (_, _, _) | Cmp (_, _, _) | Frame_addr _ | Global_addr _ | Phi _ -> true
  | Load (_, _) | Store (_, _, _) | Call (_, _) -> false

let has_side_effect = function
  | Store (_, _, _) | Call (_, _) -> true
  | _ -> false

(* ---------- evaluation helpers (shared by folding and tests) ---------- *)

let eval_binop op (a : int32) (b : int32) : int32 =
  let module S = Straight_isa.Isa in
  match op with
  | Add -> S.eval_alu S.Add a b
  | Sub -> S.eval_alu S.Sub a b
  | Mul -> S.eval_alu S.Mul a b
  | Div -> S.eval_alu S.Div a b
  | Divu -> S.eval_alu S.Divu a b
  | Rem -> S.eval_alu S.Rem a b
  | Remu -> S.eval_alu S.Remu a b
  | And -> S.eval_alu S.And a b
  | Or -> S.eval_alu S.Or a b
  | Xor -> S.eval_alu S.Xor a b
  | Shl -> S.eval_alu S.Sll a b
  | Lshr -> S.eval_alu S.Srl a b
  | Ashr -> S.eval_alu S.Sra a b

let eval_cmpop op (a : int32) (b : int32) : bool =
  let u x = Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL in
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> Int32.compare a b < 0
  | Le -> Int32.compare a b <= 0
  | Gt -> Int32.compare a b > 0
  | Ge -> Int32.compare a b >= 0
  | Ltu -> Int64.compare (u a) (u b) < 0
  | Geu -> Int64.compare (u a) (u b) >= 0

(* ---------- printing ---------- *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Divu -> "divu"
  | Rem -> "rem" | Remu -> "remu" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let cmpop_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | Ltu -> "ltu" | Geu -> "geu"

let pp_operand fmt = function
  | Const c -> Format.fprintf fmt "%ld" c
  | Val v -> Format.fprintf fmt "%%%d" v

let pp_inst fmt (v, inst) =
  match inst with
  | Bin (op, a, b) ->
    Format.fprintf fmt "%%%d = %s %a, %a" v (binop_name op) pp_operand a
      pp_operand b
  | Cmp (op, a, b) ->
    Format.fprintf fmt "%%%d = cmp %s %a, %a" v (cmpop_name op) pp_operand a
      pp_operand b
  | Load (a, o) -> Format.fprintf fmt "%%%d = load %a + %d" v pp_operand a o
  | Store (x, a, o) ->
    Format.fprintf fmt "%%%d = store %a -> %a + %d" v pp_operand x pp_operand a o
  | Call (f, args) ->
    Format.fprintf fmt "%%%d = call @%s(%a)" v f
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
         pp_operand)
      args
  | Frame_addr o -> Format.fprintf fmt "%%%d = frame + %d" v o
  | Global_addr s -> Format.fprintf fmt "%%%d = global @%s" v s
  | Phi ins ->
    Format.fprintf fmt "%%%d = phi %a" v
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
         (fun fmt (b, op) -> Format.fprintf fmt "[bb%d: %a]" b pp_operand op))
      ins

let pp_term fmt = function
  | Ret op -> Format.fprintf fmt "ret %a" pp_operand op
  | Br b -> Format.fprintf fmt "br bb%d" b
  | Cond_br (c, b1, b2) ->
    Format.fprintf fmt "condbr %a, bb%d, bb%d" pp_operand c b1 b2

let pp_func fmt f =
  Format.fprintf fmt "func @%s(%d params), frame %d bytes@." f.name f.nparams
    f.frame_bytes;
  List.iter
    (fun b ->
       Format.fprintf fmt "bb%d:@." b.bid;
       List.iter (fun i -> Format.fprintf fmt "  %a@." pp_inst i) b.insts;
       Format.fprintf fmt "  %a@." pp_term b.term)
    f.blocks

let func_to_string f = Format.asprintf "%a" pp_func f
