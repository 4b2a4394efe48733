(* Unit and property tests for both instruction sets:
   encode/decode round-trips, parser/printer round-trips, field limits. *)

module S = Straight_isa.Isa
module SE = Straight_isa.Encoding
module SP = Straight_isa.Parser
module R = Riscv_isa.Isa
module RE = Riscv_isa.Encoding
module RP = Riscv_isa.Parser

let straight_insn = Alcotest.testable S.pp_resolved ( = )
let riscv_insn =
  Alcotest.testable (R.pp (fun fmt o -> Format.fprintf fmt "%+d" o)) ( = )

(* ---------- generators ---------- *)

let gen_dist = QCheck2.Gen.int_range 0 S.max_dist

let gen_straight : S.resolved QCheck2.Gen.t =
  let open QCheck2.Gen in
  let alu_ops =
    [ S.Add; S.Sub; S.And; S.Or; S.Xor; S.Sll; S.Srl; S.Sra; S.Slt; S.Sltu;
      S.Mul; S.Mulh; S.Div; S.Divu; S.Rem; S.Remu ]
  in
  let alui_ops =
    [ S.Addi; S.Andi; S.Ori; S.Xori; S.Slli; S.Srli; S.Srai; S.Slti; S.Sltui ]
  in
  let imm16 = int_range (-32768) 32767 in
  oneof
    [ (let* op = oneofl alu_ops and* a = gen_dist and* b = gen_dist in
       return (S.Alu (op, a, b)));
      (let* op = oneofl alui_ops and* a = gen_dist in
       (* shift immediates only encode in [0,31] *)
       let* i =
         match op with
         | S.Slli | S.Srli | S.Srai -> int_range 0 31
         | _ -> imm16
       in
       return (S.Alui (op, a, Int32.of_int i)));
      (let* i = int_range 0 0xFFFFF in return (S.Lui (Int32.of_int i)));
      (let* a = gen_dist in return (S.Rmov a));
      return S.Nop;
      (let* b = gen_dist and* o = imm16 in return (S.Ld (b, o)));
      (let* v = gen_dist and* b = gen_dist and* o = int_range (-32) 31 in
       return (S.St (v, b, o * 4)));
      (let* a = gen_dist and* o = imm16 in return (S.Bez (a, o)));
      (let* a = gen_dist and* o = imm16 in return (S.Bnz (a, o)));
      (let* o = int_range (-(1 lsl 25)) ((1 lsl 25) - 1) in return (S.J o));
      (let* o = int_range (-(1 lsl 25)) ((1 lsl 25) - 1) in return (S.Jal o));
      (let* a = gen_dist in return (S.Jr a));
      (let* i = imm16 in return (S.Spadd i));
      return S.Halt ]

let gen_reg = QCheck2.Gen.int_range 0 31

let gen_riscv : R.resolved QCheck2.Gen.t =
  let open QCheck2.Gen in
  let alu_ops =
    [ R.Add; R.Sub; R.Sll; R.Slt; R.Sltu; R.Xor; R.Srl; R.Sra; R.Or; R.And;
      R.Mul; R.Mulh; R.Mulhsu; R.Mulhu; R.Div; R.Divu; R.Rem; R.Remu ]
  in
  let conds = [ R.Beq; R.Bne; R.Blt; R.Bge; R.Bltu; R.Bgeu ] in
  let imm12 = int_range (-2048) 2047 in
  oneof
    [ (let* rd = gen_reg and* i = int_range 0 0xFFFFF in
       return (R.Lui (rd, Int32.of_int i)));
      (let* rd = gen_reg and* i = int_range 0 0xFFFFF in
       return (R.Auipc (rd, Int32.of_int i)));
      (let* rd = gen_reg and* o = int_range (-(1 lsl 19)) ((1 lsl 19) - 1) in
       return (R.Jal (rd, o * 2)));
      (let* rd = gen_reg and* rs = gen_reg and* i = imm12 in
       return (R.Jalr (rd, rs, i)));
      (let* c = oneofl conds and* a = gen_reg and* b = gen_reg
       and* o = int_range (-(1 lsl 11)) ((1 lsl 11) - 1) in
       return (R.Branch (c, a, b, o * 2)));
      (let* rd = gen_reg and* rs = gen_reg and* i = imm12 in
       return (R.Lw (rd, rs, i)));
      (let* rs2 = gen_reg and* rs1 = gen_reg and* i = imm12 in
       return (R.Sw (rs2, rs1, i)));
      (let* rd = gen_reg and* rs = gen_reg and* i = imm12 in
       return (R.Alui (R.Addi, rd, rs, i)));
      (let* rd = gen_reg and* rs = gen_reg and* sh = int_range 0 31 in
       let* op = oneofl [ R.Slli; R.Srli; R.Srai ] in
       return (R.Alui (op, rd, rs, sh)));
      (let* op = oneofl alu_ops and* rd = gen_reg and* rs1 = gen_reg
       and* rs2 = gen_reg in
       return (R.Alu (op, rd, rs1, rs2)));
      return R.Ebreak ]

(* ---------- property tests ---------- *)

let prop_straight_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"straight encode/decode roundtrip"
    ~print:S.to_string_resolved gen_straight (fun insn ->
      match SE.decode (SE.encode insn) with
      | Some insn' -> insn = insn'
      | None -> false)

let prop_riscv_roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"riscv encode/decode roundtrip"
    ~print:(fun i -> Format.asprintf "%a" R.pp_resolved i)
    gen_riscv (fun insn ->
      match RE.decode (RE.encode insn) with
      | Some insn' -> insn = insn'
      | None -> false)

(* Printer/parser round-trip: print a symbolic instruction and re-parse it.
   We reuse the resolved generator and stringify targets. *)
let prop_straight_parse_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"straight print/parse roundtrip"
    ~print:S.to_string_resolved gen_straight (fun insn ->
      let sym = S.map_label string_of_int insn in
      let text = S.to_string_sym sym in
      let tokens = String.split_on_char ' ' text |> List.filter (( <> ) "") in
      SP.parse_insn tokens = sym)

(* ---------- unit tests ---------- *)

let test_straight_examples () =
  (* Fig. 1(a): Fibonacci via ADD [1] [2]. *)
  let i = SP.parse_insn [ "ADD"; "[1]"; "[2]" ] in
  Alcotest.check straight_insn "fib add" (S.Alu (S.Add, 1, 2))
    (S.map_label int_of_string i);
  let i = SP.parse_insn [ "ADDi"; "[0]"; "0" ] in
  Alcotest.check straight_insn "iota init" (S.Alui (S.Addi, 0, 0l))
    (S.map_label int_of_string i);
  Alcotest.check_raises "distance range"
    (Diag.Error
       (Diag.make ~context:[ ("source", "straight-asm") ] Diag.Parse_error
          "distance 1024 out of range"))
    (fun () -> ignore (SP.parse_insn [ "RMOV"; "[1024]" ]))

let test_straight_field_limits () =
  (* 10-bit source fields: 1023 encodes, 1024 must be rejected. *)
  ignore (SE.encode (S.Rmov 1023));
  Alcotest.check_raises "dist overflow"
    (Diag.Error
       (Diag.make ~context:[ ("target", "straight") ] Diag.Encode_error
          "rmov distance 1024 out of [0,1023]"))
    (fun () -> ignore (SE.encode (S.Rmov 1024)));
  (* ST offset is 6 signed bits of words. *)
  ignore (SE.encode (S.St (1, 2, 124)));
  (try
     ignore (SE.encode (S.St (1, 2, 128)));
     Alcotest.fail "st offset 128 should not encode"
   with Diag.Error { code = Diag.Encode_error; _ } -> ())

(* ---------- exhaustive boundary round-trips ----------

   For EVERY opcode of both ISAs, encode -> decode -> encode at the
   extreme representable immediates (and just past them, which must be
   rejected).  The shift-amount cases pin the silent-truncation bug: an
   out-of-range shamt used to encode by dropping bits, so the word
   decoded back to a different instruction. *)

let roundtrips insn =
  match SE.decode (SE.encode insn) with
  | Some insn' -> insn = insn'
  | None -> false

let rejects insn =
  match SE.encode insn with
  | exception Diag.Error { code = Diag.Encode_error; _ } -> true
  | _ -> false

let check_rt name insn = Alcotest.(check bool) name true (roundtrips insn)
let check_rej name insn = Alcotest.(check bool) name true (rejects insn)

let test_straight_boundaries () =
  let all_alu =
    [ S.Add; S.Sub; S.And; S.Or; S.Xor; S.Sll; S.Srl; S.Sra; S.Slt; S.Sltu;
      S.Mul; S.Mulh; S.Div; S.Divu; S.Rem; S.Remu ]
  in
  List.iter
    (fun op ->
       check_rt "alu dists" (S.Alu (op, 0, S.max_dist));
       check_rt "alu dists" (S.Alu (op, S.max_dist, 1));
       check_rej "alu dist over" (S.Alu (op, S.max_dist + 1, 0)))
    all_alu;
  List.iter
    (fun op ->
       check_rt "alui imm16 min" (S.Alui (op, 0, -32768l));
       check_rt "alui imm16 max" (S.Alui (op, S.max_dist, 32767l));
       check_rej "alui imm16 under" (S.Alui (op, 0, -32769l));
       check_rej "alui imm16 over" (S.Alui (op, 0, 32768l)))
    [ S.Addi; S.Andi; S.Ori; S.Xori; S.Slti; S.Sltui ];
  (* shifts: only [0,31] encodes; 32/100/-1 used to truncate silently *)
  List.iter
    (fun op ->
       check_rt "shamt 0" (S.Alui (op, 1, 0l));
       check_rt "shamt 31" (S.Alui (op, 1, 31l));
       check_rej "shamt 32" (S.Alui (op, 1, 32l));
       check_rej "shamt 100" (S.Alui (op, 1, 100l));
       check_rej "shamt -1" (S.Alui (op, 1, -1l)))
    [ S.Slli; S.Srli; S.Srai ];
  check_rt "lui 0" (S.Lui 0l);
  check_rt "lui max" (S.Lui 0xFFFFFl);
  check_rej "lui over" (S.Lui 0x100000l);
  check_rej "lui neg" (S.Lui (-1l));
  check_rt "rmov max" (S.Rmov S.max_dist);
  check_rej "rmov over" (S.Rmov (S.max_dist + 1));
  check_rt "nop" S.Nop;
  check_rt "ld min" (S.Ld (1, -32768));
  check_rt "ld max" (S.Ld (S.max_dist, 32767));
  check_rej "ld over" (S.Ld (1, 32768));
  (* ST: signed 6-bit word offset => bytes in [-128, 124], word aligned *)
  check_rt "st min" (S.St (1, 2, SE.st_min_offset));
  check_rt "st max" (S.St (1, 2, SE.st_max_offset));
  check_rt "st 0" (S.St (S.max_dist, S.max_dist, 0));
  check_rej "st under" (S.St (1, 2, SE.st_min_offset - 4));
  check_rej "st over" (S.St (1, 2, SE.st_max_offset + 4));
  check_rej "st unaligned" (S.St (1, 2, 2));
  check_rej "st unaligned max" (S.St (1, 2, SE.st_max_offset + 1));
  check_rt "bez edges" (S.Bez (1, -32768));
  check_rt "bnz edges" (S.Bnz (S.max_dist, 32767));
  check_rej "bez over" (S.Bez (1, 32768));
  check_rej "bnz under" (S.Bnz (1, -32769));
  check_rt "j min" (S.J (-(1 lsl 25)));
  check_rt "j max" (S.J ((1 lsl 25) - 1));
  check_rej "j over" (S.J (1 lsl 25));
  check_rt "jal min" (S.Jal (-(1 lsl 25)));
  check_rt "jal max" (S.Jal ((1 lsl 25) - 1));
  check_rej "jal under" (S.Jal (-(1 lsl 25) - 1));
  check_rt "jr max" (S.Jr S.max_dist);
  check_rej "jr over" (S.Jr (S.max_dist + 1));
  check_rt "spadd min" (S.Spadd (-32768));
  check_rt "spadd max" (S.Spadd 32767);
  check_rej "spadd over" (S.Spadd 32768);
  check_rt "halt" S.Halt

let r_roundtrips insn =
  match RE.decode (RE.encode insn) with
  | Some insn' -> insn = insn'
  | None -> false

let r_rejects insn =
  match RE.encode insn with
  | exception Diag.Error { code = Diag.Encode_error; _ } -> true
  | _ -> false

let r_rt name insn = Alcotest.(check bool) name true (r_roundtrips insn)
let r_rej name insn = Alcotest.(check bool) name true (r_rejects insn)

let test_riscv_boundaries () =
  let all_alu =
    [ R.Add; R.Sub; R.Sll; R.Slt; R.Sltu; R.Xor; R.Srl; R.Sra; R.Or; R.And;
      R.Mul; R.Mulh; R.Mulhsu; R.Mulhu; R.Div; R.Divu; R.Rem; R.Remu ]
  in
  List.iter
    (fun op ->
       r_rt "alu regs" (R.Alu (op, 0, 31, 1));
       r_rt "alu regs" (R.Alu (op, 31, 0, 31)))
    all_alu;
  List.iter
    (fun op ->
       r_rt "alui imm12 min" (R.Alui (op, 1, 2, -2048));
       r_rt "alui imm12 max" (R.Alui (op, 31, 31, 2047));
       r_rej "alui imm12 under" (R.Alui (op, 1, 2, -2049));
       r_rej "alui imm12 over" (R.Alui (op, 1, 2, 2048)))
    [ R.Addi; R.Slti; R.Sltiu; R.Xori; R.Ori; R.Andi ];
  (* the pinned bug: slli/srli/srai used to mask the shamt to 5 bits, so
     e.g. slli rd, rs, 32 encoded as a shift by 0 *)
  List.iter
    (fun op ->
       r_rt "shamt 0" (R.Alui (op, 1, 2, 0));
       r_rt "shamt 31" (R.Alui (op, 1, 2, 31));
       r_rej "shamt 32" (R.Alui (op, 1, 2, 32));
       r_rej "shamt 33" (R.Alui (op, 1, 2, 33));
       r_rej "shamt 100" (R.Alui (op, 1, 2, 100));
       r_rej "shamt -1" (R.Alui (op, 1, 2, -1)))
    [ R.Slli; R.Srli; R.Srai ];
  r_rt "lui 0" (R.Lui (0, 0l));
  r_rt "lui max" (R.Lui (31, 0xFFFFFl));
  r_rej "lui over" (R.Lui (1, 0x100000l));
  r_rt "auipc max" (R.Auipc (31, 0xFFFFFl));
  r_rej "auipc over" (R.Auipc (1, 0x100000l));
  r_rt "jal min" (R.Jal (1, -(1 lsl 20)));
  r_rt "jal max" (R.Jal (31, (1 lsl 20) - 2));
  r_rej "jal odd" (R.Jal (1, 3));
  r_rej "jal over" (R.Jal (1, 1 lsl 20));
  r_rt "jalr edges" (R.Jalr (1, 2, -2048));
  r_rt "jalr edges" (R.Jalr (31, 31, 2047));
  r_rej "jalr over" (R.Jalr (1, 2, 2048));
  List.iter
    (fun c ->
       r_rt "branch min" (R.Branch (c, 1, 2, -4096));
       r_rt "branch max" (R.Branch (c, 31, 0, 4094));
       r_rej "branch odd" (R.Branch (c, 1, 2, 6 + 1));
       r_rej "branch over" (R.Branch (c, 1, 2, 4096)))
    [ R.Beq; R.Bne; R.Blt; R.Bge; R.Bltu; R.Bgeu ];
  r_rt "lw edges" (R.Lw (1, 2, -2048));
  r_rt "lw edges" (R.Lw (31, 31, 2047));
  r_rej "lw over" (R.Lw (1, 2, 2048));
  r_rt "sw edges" (R.Sw (1, 2, -2048));
  r_rt "sw edges" (R.Sw (31, 31, 2047));
  r_rej "sw under" (R.Sw (1, 2, -2049));
  r_rt "ebreak" R.Ebreak

let test_riscv_known_words () =
  (* Cross-checked against the RISC-V spec: addi x1, x2, 3. *)
  Alcotest.(check int32) "addi x1,x2,3" 0x00310093l
    (RE.encode (R.Alui (R.Addi, 1, 2, 3)));
  (* add x3, x4, x5 *)
  Alcotest.(check int32) "add x3,x4,x5" 0x005201B3l
    (RE.encode (R.Alu (R.Add, 3, 4, 5)));
  (* lw x6, 8(x7) *)
  Alcotest.(check int32) "lw x6,8(x7)" 0x0083A303l
    (RE.encode (R.Lw (6, 7, 8)));
  (* sw x8, 12(x9) *)
  Alcotest.(check int32) "sw x8,12(x9)" 0x0084A623l
    (RE.encode (R.Sw (8, 9, 12)));
  (* beq x10, x11, +16 *)
  Alcotest.(check int32) "beq x10,x11,+16" 0x00B50863l
    (RE.encode (R.Branch (R.Beq, 10, 11, 16)));
  (* jal x1, +2048 *)
  Alcotest.(check int32) "jal x1,+2048" 0x001000EFl
    (RE.encode (R.Jal (1, 2048)));
  (* mul x1, x2, x3: funct7=1 *)
  Alcotest.(check int32) "mul x1,x2,x3" 0x023100B3l
    (RE.encode (R.Alu (R.Mul, 1, 2, 3)));
  Alcotest.(check int32) "ebreak" 0x00100073l (RE.encode R.Ebreak)

let test_riscv_parser () =
  Alcotest.check riscv_insn "lw a0, 8(sp)"
    (R.Lw (10, 2, 8))
    (R.map_label (fun _ -> 0) (RP.parse_insn [ "lw"; "a0"; "8(sp)" ]));
  Alcotest.check riscv_insn "ret" (R.Jalr (0, 1, 0))
    (R.map_label (fun _ -> 0) (RP.parse_insn [ "ret" ]));
  Alcotest.check riscv_insn "mv t0, t1"
    (R.Alui (R.Addi, 5, 6, 0))
    (R.map_label (fun _ -> 0) (RP.parse_insn [ "mv"; "t0"; "t1" ]))

let test_kind_classification () =
  Alcotest.(check bool) "rmov kind" true (S.kind (S.Rmov 1) = S.Krmov);
  Alcotest.(check bool) "mul kind" true (S.kind (S.Alu (S.Mul, 1, 2)) = S.Kmul);
  Alcotest.(check bool) "div kind" true (S.kind (S.Alu (S.Rem, 1, 2)) = S.Kdiv);
  Alcotest.(check bool) "spadd kind" true (S.kind (S.Spadd 8) = S.Kalu);
  Alcotest.(check bool) "jr kind" true (S.kind (S.Jr 3) = S.Kjump);
  Alcotest.(check bool) "riscv branch" true
    (R.kind (R.Branch (R.Beq, 1, 2, 0)) = R.Kbranch)

let test_eval_alu_corners () =
  Alcotest.(check int32) "div overflow" Int32.min_int
    (S.eval_alu S.Div Int32.min_int (-1l));
  Alcotest.(check int32) "div by zero" (-1l) (S.eval_alu S.Div 7l 0l);
  Alcotest.(check int32) "rem by zero" 7l (S.eval_alu S.Rem 7l 0l);
  Alcotest.(check int32) "sltu" 1l (S.eval_alu S.Sltu 1l (-1l));
  Alcotest.(check int32) "slt" 0l (S.eval_alu S.Slt 1l (-1l));
  Alcotest.(check int32) "sra" (-1l) (S.eval_alu S.Sra (-16l) 4l);
  Alcotest.(check int32) "srl" 0x0FFFFFFFl (S.eval_alu S.Srl (-1l) 4l);
  Alcotest.(check int32) "mulh" 1l (S.eval_alu S.Mulh 0x10000l 0x10000l);
  Alcotest.(check int32) "divu by zero" (-1l) (R.eval_alu R.Divu 5l 0l);
  Alcotest.(check int32) "mulhu" 0xFFFFFFFEl (R.eval_alu R.Mulhu (-1l) (-1l))

let suite =
  [ ("straight examples", `Quick, test_straight_examples);
    ("straight field limits", `Quick, test_straight_field_limits);
    ("straight boundary roundtrips", `Quick, test_straight_boundaries);
    ("riscv boundary roundtrips", `Quick, test_riscv_boundaries);
    ("riscv known encodings", `Quick, test_riscv_known_words);
    ("riscv parser", `Quick, test_riscv_parser);
    ("kind classification", `Quick, test_kind_classification);
    ("alu corner cases", `Quick, test_eval_alu_corners);
    QCheck_alcotest.to_alcotest prop_straight_roundtrip;
    QCheck_alcotest.to_alcotest prop_riscv_roundtrip;
    QCheck_alcotest.to_alcotest prop_straight_parse_roundtrip ]

let () = Alcotest.run "isa" [ ("isa", suite) ]
