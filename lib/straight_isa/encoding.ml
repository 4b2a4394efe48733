(* Binary bit-field formats for STRAIGHT (our concrete realization of
   Fig. 1(b)).  Every instruction is one 32-bit word.  Because there is no
   destination field, source-distance fields can span the full 10 bits the
   paper calls for.

     bits  31..26  opcode (6)
     R:    25..16 s1   15..6 s2    5..0 zero
     I:    25..16 s1   15..0 imm16 (sign-extended; also LD byte offset)
     U:    25..6  imm20              (LUI)
     S:    25..16 s1=value  15..6 s2=base  5..0 imm6 (signed *word* offset)
     B:    25..16 s1   15..0 imm16 (signed PC-relative word offset)
     J:    25..0  imm26             (signed PC-relative word offset)

   The 6-bit ST offset is deliberate: the store format has two 10-bit source
   fields, leaving 6 bits.  The compiler materializes out-of-range store
   addresses with an explicit ADDi. *)

open Isa

let bad fmt =
  Diag.error ~context:[ ("target", "straight") ] Diag.Encode_error fmt

type op_code =
  | OP_ALU of alu_op
  | OP_ALUI of alui_op
  | OP_LUI | OP_RMOV | OP_NOP | OP_LD | OP_ST | OP_BEZ | OP_BNZ
  | OP_J | OP_JAL | OP_JR | OP_SPADD | OP_HALT

let opcode_num = function
  | OP_ALU Add -> 0 | OP_ALU Sub -> 1 | OP_ALU And -> 2 | OP_ALU Or -> 3
  | OP_ALU Xor -> 4 | OP_ALU Sll -> 5 | OP_ALU Srl -> 6 | OP_ALU Sra -> 7
  | OP_ALU Slt -> 8 | OP_ALU Sltu -> 9 | OP_ALU Mul -> 10 | OP_ALU Mulh -> 11
  | OP_ALU Div -> 12 | OP_ALU Divu -> 13 | OP_ALU Rem -> 14 | OP_ALU Remu -> 15
  | OP_ALUI Addi -> 16 | OP_ALUI Andi -> 17 | OP_ALUI Ori -> 18
  | OP_ALUI Xori -> 19 | OP_ALUI Slli -> 20 | OP_ALUI Srli -> 21
  | OP_ALUI Srai -> 22 | OP_ALUI Slti -> 23 | OP_ALUI Sltui -> 24
  | OP_LUI -> 25 | OP_RMOV -> 26 | OP_NOP -> 27 | OP_LD -> 28 | OP_ST -> 29
  | OP_BEZ -> 30 | OP_BNZ -> 31 | OP_J -> 32 | OP_JAL -> 33 | OP_JR -> 34
  | OP_SPADD -> 35 | OP_HALT -> 36

let all_opcodes =
  let alus = [ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu;
               Mul; Mulh; Div; Divu; Rem; Remu ] in
  let aluis = [ Addi; Andi; Ori; Xori; Slli; Srli; Srai; Slti; Sltui ] in
  List.map (fun o -> OP_ALU o) alus
  @ List.map (fun o -> OP_ALUI o) aluis
  @ [ OP_LUI; OP_RMOV; OP_NOP; OP_LD; OP_ST; OP_BEZ; OP_BNZ; OP_J; OP_JAL;
      OP_JR; OP_SPADD; OP_HALT ]

let opcode_of_num =
  let table = Hashtbl.create 64 in
  List.iter (fun oc -> Hashtbl.replace table (opcode_num oc) oc) all_opcodes;
  fun n -> Hashtbl.find_opt table n

(* Field packing helpers.  All arithmetic is done in int (63-bit), then the
   word is truncated to 32 bits. *)

let check_dist what d =
  if d < 0 || d > max_dist then bad "%s distance %d out of [0,%d]" what d max_dist

let check_signed what bits v =
  let lim = 1 lsl (bits - 1) in
  if v < -lim || v >= lim then bad "%s immediate %d out of signed %d bits" what v bits

let mask bits v = v land ((1 lsl bits) - 1)

let sext bits v =
  let m = 1 lsl (bits - 1) in
  (v land ((1 lsl bits) - 1) lxor m) - m

let word op f25_0 = Int32.of_int ((opcode_num op lsl 26) lor mask 26 f25_0)

let enc_r op s1 s2 = word op ((s1 lsl 16) lor (s2 lsl 6))
let enc_i op s1 imm = word op ((s1 lsl 16) lor mask 16 imm)
let enc_u op imm20 = word op (mask 20 imm20 lsl 6)
let enc_s op s1 s2 imm6 = word op ((s1 lsl 16) lor (s2 lsl 6) lor mask 6 imm6)
let enc_j op imm26 = word op (mask 26 imm26)

(* [encode insn] packs a resolved instruction into its 32-bit word.
   Raises a [Diag.Encode_error] error when a field does not fit. *)
let encode (insn : resolved) : int32 =
  match insn with
  | Alu (op, a, b) ->
    check_dist "alu" a; check_dist "alu" b;
    enc_r (OP_ALU op) a b
  | Alui (op, a, i) ->
    check_dist "alui" a;
    let i = Int32.to_int i in
    (match op with
     | Slli | Srli | Srai ->
       (* shifts read only the low five bits at execution; keep the
          encoded form canonical so decode(encode i) = i and the two
          ISAs agree on representable shift amounts *)
       if i < 0 || i > 31 then
         bad "%s shift amount %d out of [0,31]"
           (String.lowercase_ascii (alui_op_name op)) i
     | _ -> check_signed "alui" 16 i);
    enc_i (OP_ALUI op) a i
  | Lui i ->
    let i = Int32.to_int i in
    if i < 0 || i > 0xFFFFF then bad "lui immediate %d out of 20 bits" i;
    enc_u OP_LUI i
  | Rmov a -> check_dist "rmov" a; enc_r OP_RMOV a 0
  | Nop -> enc_r OP_NOP 0 0
  | Ld (b, o) ->
    check_dist "ld" b; check_signed "ld" 16 o;
    enc_i OP_LD b o
  | St (v, b, o) ->
    check_dist "st" v; check_dist "st" b;
    if o land 3 <> 0 then bad "st offset %d not word aligned" o;
    let ow = o asr 2 in
    check_signed "st" 6 ow;
    enc_s OP_ST v b ow
  | Bez (a, off) -> check_dist "bez" a; check_signed "bez" 16 off; enc_i OP_BEZ a off
  | Bnz (a, off) -> check_dist "bnz" a; check_signed "bnz" 16 off; enc_i OP_BNZ a off
  | J off -> check_signed "j" 26 off; enc_j OP_J off
  | Jal off -> check_signed "jal" 26 off; enc_j OP_JAL off
  | Jr a -> check_dist "jr" a; enc_r OP_JR a 0
  | Spadd i -> check_signed "spadd" 16 i; enc_i OP_SPADD 0 i
  | Halt -> enc_r OP_HALT 0 0

(* [decode w] unpacks a 32-bit word; [None] on an illegal opcode. *)
let decode (w : int32) : resolved option =
  let w = Int32.to_int w land 0xFFFFFFFF in
  let opn = (w lsr 26) land 0x3F in
  let s1 = (w lsr 16) land 0x3FF in
  let s2 = (w lsr 6) land 0x3FF in
  let imm16 = sext 16 (w land 0xFFFF) in
  let imm6 = sext 6 (w land 0x3F) in
  let imm20 = (w lsr 6) land 0xFFFFF in
  let imm26 = sext 26 (w land 0x3FFFFFF) in
  match opcode_of_num opn with
  | None -> None
  | Some oc ->
    Some
      (match oc with
       | OP_ALU op -> Alu (op, s1, s2)
       | OP_ALUI op -> Alui (op, s1, Int32.of_int imm16)
       | OP_LUI -> Lui (Int32.of_int imm20)
       | OP_RMOV -> Rmov s1
       | OP_NOP -> Nop
       | OP_LD -> Ld (s1, imm16)
       | OP_ST -> St (s1, s2, imm6 * 4)
       | OP_BEZ -> Bez (s1, imm16)
       | OP_BNZ -> Bnz (s1, imm16)
       | OP_J -> J imm26
       | OP_JAL -> Jal imm26
       | OP_JR -> Jr s1
       | OP_SPADD -> Spadd imm16
       | OP_HALT -> Halt)

(* Maximum byte offset representable in the ST format (word granular). *)
let st_max_offset = 31 * 4
let st_min_offset = -32 * 4
