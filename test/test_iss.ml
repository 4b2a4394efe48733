(* End-to-end tests of assembler + functional simulators on hand-written
   programs for both ISAs. *)

module SAsm = Assembler.Asm.Straight
module RAsm = Assembler.Asm.Riscv

let run_straight ?(collect_dist = false) src =
  let image = SAsm.assemble_source src in
  Iss.Straight_iss.run
    ~config:{ Iss.Straight_iss.default_config with
              collect_dist; max_insns = 1_000_000 }
    image

let run_riscv src =
  let image = RAsm.assemble_source src in
  Iss.Riscv_iss.run
    ~config:{ Iss.Riscv_iss.default_config with max_insns = 1_000_000 }
    image

(* Fig. 1(a) of the paper: Fibonacci by repeated ADD [1] [2]. *)
let test_straight_fib () =
  let src = {|
.text
main:
  ADDi [0] 1
  ADDi [0] 1
  ADD [1] [2]
  ADD [1] [2]
  ADD [1] [2]
  ADD [1] [2]
  ADD [1] [2]
  LUI 0xFFFF0
  ST [2] [1] 0
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "fib(7)=13" "13\n" r.Iss.Trace.output

let test_straight_loop_and_branch () =
  (* Sum 1..10 with a loop; mirrors the distance-fixing shape of Fig. 9:
     the entry frame of [loop] is (pad, i, sum) on both incoming paths —
     the NOP below aligns the fall-through path with the back edge's J. *)
  let src = {|
.text
main:
  ADDi [0] 0        # sum = 0
  ADDi [0] 1        # i = 1
  NOP               # distance fixing: align with the back edge J
loop:
  ADD [3] [2]       # sum' = sum + i
  ADDi [3] 1        # i' = i + 1
  SLTi [1] 11       # i' < 11
  BEZ [1] done
  RMOV [4]          # re-produce sum'
  RMOV [4]          # re-produce i'
  J loop
done:
  LUI 0xFFFF0
  ST [5] [1] 0      # print sum' (BEZ, cond, i', sum' = 4 back + LUI)
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "sum 1..10" "55\n" r.Iss.Trace.output

let test_straight_spadd_and_memory () =
  let src = {|
.text
main:
  SPADD -16         # allocate frame; result = new SP
  ADDi [0] 42
  ST [1] [2] 4      # mem[sp+4] = 42
  LD [3] 4          # load it back
  LUI 0xFFFF0
  ST [2] [1] 0
  SPADD 16
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "stack roundtrip" "42\n" r.Iss.Trace.output

let test_straight_call_return () =
  (* JAL/JR calling convention: callee refers to the JAL by distance. *)
  let src = {|
.text
main:
  ADDi [0] 20       # arg0 producer
  ADDi [0] 22       # arg1 producer
  JAL callee
  LUI 0xFFFF0
  ST [3] [1] 0      # retval was produced just before JR: dist 2 at return
  HALT
callee:
  ADD [3] [2]       # arg0 + arg1
  JR [2]            # return via JAL value
|} in
  let r = run_straight src in
  Alcotest.(check string) "call/return" "42\n" r.Iss.Trace.output

let test_straight_store_returns_value () =
  (* Paper: "store value is returned in the current specification". *)
  let src = {|
.text
main:
  LUI 0x100
  ADDi [0] 7
  ST [1] [2] 0
  LUI 0xFFFF0
  ST [2] [1] 0      # print the ST result (= 7)
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "st result" "7\n" r.Iss.Trace.output

let test_straight_zero_register () =
  let src = {|
.text
main:
  ADDi [0] 5
  ADD [1] [0]       # [0] reads zero
  LUI 0xFFFF0
  ST [2] [1] 0
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "zero reg" "5\n" r.Iss.Trace.output

let test_distance_histogram () =
  let src = {|
.text
main:
  ADDi [0] 1
  ADDi [0] 1
  ADD [1] [2]
  HALT
|} in
  let r = run_straight ~collect_dist:true src in
  Alcotest.(check int) "dist 1 count" 1 r.Iss.Trace.dist_histogram.(1);
  Alcotest.(check int) "dist 2 count" 1 r.Iss.Trace.dist_histogram.(2)

let test_straight_putchar () =
  let src = {|
.text
main:
  LUI 0xFFFF0
  ADDi [0] 72
  ST [1] [2] 4
  ADDi [0] 105
  ST [1] [4] 4
  HALT
|} in
  let r = run_straight src in
  Alcotest.(check string) "putchar" "Hi" r.Iss.Trace.output

let test_riscv_loop () =
  let src = {|
.text
main:
  li a0, 0
  li t0, 1
loop:
  add a0, a0, t0
  addi t0, t0, 1
  slti t1, t0, 11
  bne t1, zero, loop
  lui t2, 0xFFFF0
  sw a0, 0(t2)
  ebreak
|} in
  let r = run_riscv src in
  Alcotest.(check string) "sum 1..10" "55\n" r.Iss.Trace.output

let test_riscv_call () =
  let src = {|
.text
main:
  li a0, 20
  li a1, 22
  jal ra, callee
  lui t2, 0xFFFF0
  sw a0, 0(t2)
  ebreak
callee:
  add a0, a0, a1
  ret
|} in
  let r = run_riscv src in
  Alcotest.(check string) "call" "42\n" r.Iss.Trace.output

let test_riscv_memory_and_data () =
  let src = {|
.data
table:
  .word 10
  .word 20
  .word 12
.text
main:
  lui t0, 0x100      # data_base = 0x100000
  lw a0, 0(t0)
  lw a1, 4(t0)
  lw a2, 8(t0)
  add a0, a0, a1
  add a0, a0, a2
  lui t2, 0xFFFF0
  sw a0, 0(t2)
  ebreak
|} in
  let r = run_riscv src in
  Alcotest.(check string) "data section" "42\n" r.Iss.Trace.output

let test_trace_collection () =
  let src = {|
.text
main:
  ADDi [0] 1
  ADDi [0] 1
  ADD [1] [2]
  HALT
|} in
  let image = SAsm.assemble_source src in
  let r =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.default_config with collect_trace = true }
      image
  in
  Alcotest.(check int) "trace length" 4 (Array.length r.Iss.Trace.trace);
  let add = r.Iss.Trace.trace.(2) in
  Alcotest.(check bool) "add deps" true (add.Iss.Trace.srcs_dist = [| 1; 2 |])

(* Precise interrupts (Section III-A): saving a session at any
   instruction boundary, dropping it, and loading the bytes must be
   indistinguishable from an uninterrupted run — on STRAIGHT from
   {PC, SP, RP, register window} + memory, on RV32IM from
   {PC, x0-x31, instret} + memory.  Boundaries are seeded. *)
let test_precise_interrupt () =
  let src = {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int buf[8];
int main() {
  for (int i = 0; i < 8; i++) buf[i] = fib(i + 3);
  int s = 0;
  for (int i = 0; i < 8; i++) s += buf[i] * i;
  putint(s);
}
|} in
  let compile backend =
    (Straight_core.Compile.compile backend src).Straight_core.Compile.image
  in
  let images =
    [ ("straight",
       compile
         (Straight_core.Compile.Straight
            { Straight_cc.Codegen.max_dist = 31;
              level = Straight_cc.Codegen.Re_plus }));
      ("riscv", compile Straight_core.Compile.Riscv) ]
  in
  (* a digesting observer that also checks retirement indices run on
     without a gap across the save point *)
  let observer () =
    let st = Iss.Trace.digest_init () and next = ref 0 in
    ( st,
      fun idx u ->
        if idx <> !next then
          Alcotest.failf "retirement index %d, expected %d" idx !next;
        incr next;
        Iss.Trace.digest_add st u )
  in
  let rng = Random.State.make [| 20 |] in
  List.iter
    (fun (isa, image) ->
       let st, on_retire = observer () in
       let reference = Iss.Machine.run ~on_retire image in
       let digest = Iss.Trace.digest_result st in
       let boundaries =
         0 :: (reference.Iss.Trace.retired - 1)
         :: List.init 6 (fun _ ->
             Random.State.int rng reference.Iss.Trace.retired)
       in
       List.iter
         (fun at ->
            let label = Printf.sprintf "%s, saved at %d" isa at in
            let st, on_retire = observer () in
            let s = Iss.Machine.start ~on_retire image in
            Iss.Machine.run_session ~until:at s;
            let b = Buffer.create 65536 in
            Iss.Machine.save b s;
            let s =
              Iss.Machine.load ~on_retire image (Bin.reader (Buffer.contents b))
            in
            Alcotest.(check int) (label ^ ": resumes at the boundary") at
              (Iss.Machine.retired s);
            Iss.Machine.run_session s;
            let r = Iss.Machine.finish s in
            Alcotest.(check string) (label ^ ": same output")
              reference.Iss.Trace.output r.Iss.Trace.output;
            Alcotest.(check int) (label ^ ": same retired count")
              reference.Iss.Trace.retired r.Iss.Trace.retired;
            Alcotest.(check string) (label ^ ": same stream digest") digest
              (Iss.Trace.digest_result st))
         boundaries)
    images;
  (* a state only loads under an image of its own ISA, and whole *)
  let straight = List.assoc "straight" images
  and riscv = List.assoc "riscv" images in
  let saved image =
    let s = Iss.Machine.start image in
    Iss.Machine.run_session ~until:10 s;
    let b = Buffer.create 65536 in
    Iss.Machine.save b s;
    Buffer.contents b
  in
  let rejected label image bytes =
    Alcotest.(check bool) label true
      (match Iss.Machine.load image (Bin.reader bytes) with
       | _ -> false
       | exception Bin.Corrupt _ -> true)
  in
  rejected "a STRAIGHT state under an RV32IM image" riscv (saved straight);
  rejected "an RV32IM state under a STRAIGHT image" straight (saved riscv);
  let whole = saved straight in
  rejected "a truncated state" straight
    (String.sub whole 0 (String.length whole - 5))

let test_checkpoint_window_only () =
  (* the checkpoint really is bounded: PC/SP/RP + max_dist values *)
  let src = ".text\nmain:\n  ADDi [0] 1\n  ADDi [0] 2\n  HALT\n" in
  let image = SAsm.assemble_source src in
  let s = Iss.Straight_iss.start image in
  Iss.Straight_iss.run_session ~until:2 s;
  let st = Iss.Straight_iss.checkpoint s in
  Alcotest.(check int) "window length"
    Straight_isa.Isa.max_dist
    (Array.length st.Iss.Straight_iss.a_window);
  Alcotest.(check int) "rp" 2 st.Iss.Straight_iss.a_rp;
  (* value at distance 1 is the last result *)
  Alcotest.(check int32) "window.(0)" 2l st.Iss.Straight_iss.a_window.(0);
  Alcotest.(check int32) "window.(1)" 1l st.Iss.Straight_iss.a_window.(1)

(* ---------- structured memory/fuel faults (Diag) ---------- *)

let expect_diag code f =
  match f () with
  | _ -> Alcotest.fail ("expected " ^ code ^ " diagnostic")
  | exception Diag.Error d ->
    Alcotest.(check string) "diag code" code (Diag.code_name d.Diag.code);
    d

let test_straight_memory_faults () =
  (* unaligned word access *)
  let d =
    expect_diag "MEM_UNALIGNED" (fun () ->
        run_straight
          ".text\nmain:\n  LUI 0x100\n  ADDi [1] 2\n  LD [1] 0\n  HALT\n")
  in
  Alcotest.(check (option string)) "faulting address"
    (Some "0x100002") (List.assoc_opt "addr" d.Diag.context);
  (* store to an unmapped MMIO address *)
  ignore
    (expect_diag "MEM_MMIO" (fun () ->
         run_straight
           ".text\nmain:\n  LUI 0xFFFF0\n  ADDi [0] 1\n  ST [1] [2] 8\n  HALT\n"));
  (* load from the write-only MMIO window *)
  ignore
    (expect_diag "MEM_MMIO" (fun () ->
         run_straight ".text\nmain:\n  LUI 0xFFFF0\n  LD [1] 0\n  HALT\n"))

let test_riscv_memory_faults () =
  let d =
    expect_diag "MEM_UNALIGNED" (fun () ->
        run_riscv
          ".text\nmain:\n  lui t0, 0x100\n  addi t0, t0, 2\n  lw a0, 0(t0)\n  ebreak\n")
  in
  Alcotest.(check (option string)) "faulting address"
    (Some "0x100002") (List.assoc_opt "addr" d.Diag.context);
  ignore
    (expect_diag "MEM_MMIO" (fun () ->
         run_riscv
           ".text\nmain:\n  lui t2, 0xFFFF0\n  sw zero, 8(t2)\n  ebreak\n"));
  ignore
    (expect_diag "MEM_MMIO" (fun () ->
         run_riscv
           ".text\nmain:\n  lui t2, 0xFFFF0\n  lw a0, 0(t2)\n  ebreak\n"))

let test_fuel_exhaustion () =
  (* both ISSes must report a budget overrun as FUEL_EXHAUSTED carrying
     the retired count, not as a generic execution error *)
  let ds =
    expect_diag "FUEL_EXHAUSTED" (fun () ->
        let image =
          SAsm.assemble_source ".text\nmain:\nloop:\n  J loop\n  HALT\n"
        in
        Iss.Straight_iss.run
          ~config:{ Iss.Straight_iss.default_config with max_insns = 100 }
          image)
  in
  Alcotest.(check (option string)) "straight retired count"
    (Some "100") (List.assoc_opt "retired" ds.Diag.context);
  let dr =
    expect_diag "FUEL_EXHAUSTED" (fun () ->
        let image =
          RAsm.assemble_source ".text\nmain:\nloop:\n  j loop\n  ebreak\n"
        in
        Iss.Riscv_iss.run
          ~config:{ Iss.Riscv_iss.default_config with max_insns = 100 }
          image)
  in
  Alcotest.(check (option string)) "riscv retired count"
    (Some "100") (List.assoc_opt "retired" dr.Diag.context)

let test_asm_errors () =
  (try
     ignore (SAsm.assemble_source ".text\nmain:\n  J nowhere\n  HALT\n");
     Alcotest.fail "undefined symbol accepted"
   with Diag.Error { code = Diag.Asm_error; _ } -> ());
  (try
     ignore (SAsm.assemble_source ".text\nx:\nx:\n  HALT\n");
     Alcotest.fail "duplicate label accepted"
   with Diag.Error { code = Diag.Asm_error; _ } -> ())

(* ---------- Iss.Machine ---------- *)

module Image = Assembler.Image
module Exp = Straight_core.Experiment

(* Every compiled image names its ISA, and [Iss.Machine] runs it on that
   ISA's own simulator: the same run, the same wrong-path decode. *)
let test_machine_dispatch () =
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun target ->
            let label =
              Printf.sprintf "%s/%s" w.Workloads.name (Exp.target_label target)
            in
            let image =
              (Straight_core.Compile.compile (Exp.codegen target)
                 w.Workloads.source)
                .Straight_core.Compile.image
            in
            let undecodable pc =
              Alcotest.failf "%s: undecodable text word at %#x" label pc
            in
            (* the target's ISA, its own ISS run, and its own decode of a
               text word ([None] at the stop instruction) *)
            let isa, own, shape =
              match target with
              | Exp.Straight_raw | Exp.Straight_re ->
                ( Image.Straight,
                  Iss.Straight_iss.run
                    ~config:
                      { Iss.Straight_iss.default_config with
                        collect_trace = true; collect_dist = true }
                    image,
                  fun pc word ->
                    match Straight_isa.Encoding.decode word with
                    | Some Straight_isa.Isa.Halt -> None
                    | Some insn -> Some (Iss.Straight_iss.uop_shape pc insn)
                    | None -> undecodable pc )
              | Exp.Riscv ->
                ( Image.Riscv,
                  Iss.Riscv_iss.run
                    ~config:
                      { Iss.Riscv_iss.default_config with collect_trace = true }
                    image,
                  fun pc word ->
                    match Riscv_isa.Encoding.decode word with
                    | Some Riscv_isa.Isa.Ebreak -> None
                    | Some insn -> Some (Iss.Riscv_iss.uop_shape pc insn)
                    | None -> undecodable pc )
            in
            Alcotest.(check bool) (label ^ ": image ISA") true
              (image.Image.isa = isa);
            let session =
              Iss.Machine.start ~collect_trace:true ~collect_dist:true image
            in
            Iss.Machine.run_session session;
            let m = Iss.Machine.finish session in
            Alcotest.(check string) (label ^ ": output") own.Iss.Trace.output
              m.Iss.Trace.output;
            Alcotest.(check int) (label ^ ": retired") own.Iss.Trace.retired
              m.Iss.Trace.retired;
            Alcotest.(check (array int)) (label ^ ": distance histogram")
              own.Iss.Trace.dist_histogram m.Iss.Trace.dist_histogram;
            Alcotest.(check bool) (label ^ ": trace") true
              (own.Iss.Trace.trace = m.Iss.Trace.trace);
            let static = Iss.Machine.static_uop session in
            let base = image.Image.text_base in
            List.iter
              (fun pc ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: no uop at %#x" label pc)
                   true (static pc = None))
              [ base - 4; Image.text_end image; base + 2 ];
            let stops = ref 0 in
            Array.iteri
              (fun i word ->
                 let pc = base + (4 * i) in
                 let want = shape pc word in
                 if want = None then incr stops;
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: static uop at %#x" label pc)
                   true (static pc = want))
              image.Image.text;
            Alcotest.(check bool) (label ^ ": text has a stop word") true
              (!stops > 0);
            (* one shape table per run: a retirement with no dynamic
               field is the very uop wrong-path fetch returns (the last
               one is the stop instruction, which fetch never returns) *)
            let trace = m.Iss.Trace.trace in
            Array.iteri
              (fun i (u : Iss.Trace.uop) ->
                 match u.Iss.Trace.ctrl, u.Iss.Trace.fu with
                 | _, (Iss.Trace.FU_load | Iss.Trace.FU_store)
                 | Iss.Trace.Uncond _, _
                 | Iss.Trace.Cond { taken = true; _ }, _ -> ()
                 | _ ->
                   Alcotest.(check bool)
                     (Printf.sprintf "%s: shared uop at %#x" label
                        u.Iss.Trace.pc)
                     true
                     (match static u.Iss.Trace.pc with
                      | Some v -> v == u
                      | None -> i = Array.length trace - 1))
              trace)
         [ Exp.Straight_raw; Exp.Straight_re; Exp.Riscv ])
    [ Workloads.fib (); Workloads.wasm_sieve () ]

(* The stream digest changes when any one field of any one uop changes,
   when a source is added or dropped, and when two adjacent uops swap;
   and it allocates nothing.  Each mutation is tried at the first and
   last uops and either side of index 4096, on a stream of each ISA
   several thousand uops long. *)
let test_digest_sensitive () =
  let module T = Iss.Trace in
  let digest (a : T.uop array) =
    let st = T.digest_init () in
    Array.iter (T.digest_add st) a;
    T.digest_result st
  in
  let flip_ctrl f (u : T.uop) =
    match u.T.ctrl with
    | T.Not_ctrl -> None
    | c -> Option.map (fun ctrl -> { u with T.ctrl }) (f c)
  in
  let each_src get set (u : T.uop) =
    List.init (Array.length (get u)) (fun i ->
        let a = Array.copy (get u) in
        a.(i) <- a.(i) + 1;
        set u a)
  in
  let drop_src get set (u : T.uop) =
    List.init (Array.length (get u)) (fun i ->
        set u
          (Array.of_list
             (List.filteri (fun j _ -> j <> i) (Array.to_list (get u)))))
  in
  let dist u = u.T.srcs_dist and set_dist u a = { u with T.srcs_dist = a } in
  let regs u = u.T.srcs_reg and set_regs u a = { u with T.srcs_reg = a } in
  let one f u = Option.to_list (f u) in
  let fus = [ T.FU_alu; T.FU_mul; T.FU_div; T.FU_branch; T.FU_load;
              T.FU_store ] in
  (* every mutation a uop admits, by name *)
  let mutations : (string * (T.uop -> T.uop list)) list =
    [ ("pc", fun u -> [ { u with T.pc = u.T.pc + 4 } ]);
      ("fu", fun u ->
          List.filter_map
            (fun fu -> if fu = u.T.fu then None else Some { u with T.fu })
            fus);
      ("source distance", each_src dist set_dist);
      ("source register", each_src regs set_regs);
      ("added distance",
       fun u -> [ set_dist u (Array.append (dist u) [| 1 |]) ]);
      ("added register",
       fun u -> [ set_regs u (Array.append (regs u) [| 1 |]) ]);
      ("dropped distance", drop_src dist set_dist);
      ("dropped register", drop_src regs set_regs);
      ("dest_reg", fun u -> [ { u with T.dest_reg = u.T.dest_reg + 1 } ]);
      ("has_dest", fun u -> [ { u with T.has_dest = not u.T.has_dest } ]);
      ("is_rmov", fun u -> [ { u with T.is_rmov = not u.T.is_rmov } ]);
      ("is_nop", fun u -> [ { u with T.is_nop = not u.T.is_nop } ]);
      ("is_spadd", fun u -> [ { u with T.is_spadd = not u.T.is_spadd } ]);
      ("mem_addr", fun u -> [ { u with T.mem_addr = u.T.mem_addr + 4 } ]);
      ("ctrl variant", fun u ->
          [ { u with
              T.ctrl =
                (match u.T.ctrl with
                 | T.Not_ctrl -> T.Cond { taken = false; target = 0 }
                 | T.Cond { target; _ } ->
                   T.Uncond { target; is_call = false; is_ret = false }
                 | T.Uncond _ -> T.Not_ctrl) } ]);
      ("taken", one (flip_ctrl (function
           | T.Cond c -> Some (T.Cond { c with taken = not c.taken })
           | _ -> None)));
      ("target", one (flip_ctrl (function
           | T.Cond c -> Some (T.Cond { c with target = c.target + 4 })
           | T.Uncond c -> Some (T.Uncond { c with target = c.target + 4 })
           | T.Not_ctrl -> None)));
      ("is_call", one (flip_ctrl (function
           | T.Uncond c -> Some (T.Uncond { c with is_call = not c.is_call })
           | _ -> None)));
      ("is_ret", one (flip_ctrl (function
           | T.Uncond c -> Some (T.Uncond { c with is_ret = not c.is_ret })
           | _ -> None))) ]
  in
  let exercised = Hashtbl.create 32 in
  List.iter
    (fun target ->
       let label = Exp.target_label target in
       let image =
         (Straight_core.Compile.compile (Exp.codegen target)
            (Workloads.sort ~n:40 ()).Workloads.source)
           .Straight_core.Compile.image
       in
       let trace = (Iss.Machine.run ~collect_trace:true image).T.trace in
       let n = Array.length trace in
       Alcotest.(check bool) (label ^ ": stream past index 4096") true
         (n > 8192);
       let base = digest trace in
       (* each mutation at the first uop at or after each anchor that
          admits it *)
       List.iter
         (fun (what, mutate) ->
            List.iter
              (fun anchor ->
                 let rec find i =
                   if i >= n then None
                   else
                     match mutate trace.(i) with
                     | [] -> find (i + 1)
                     | vs -> Some (i, vs)
                 in
                 match find anchor with
                 | None -> ()
                 | Some (i, variants) ->
                   Hashtbl.replace exercised what ();
                   List.iter
                     (fun v ->
                        let a = Array.copy trace in
                        a.(i) <- v;
                        if digest a = base then
                          Alcotest.failf "%s: %s changed at uop %d, same digest"
                            label what i)
                     variants)
              [ 0; 4095; 4096; n - 1 ])
         mutations;
       (* adjacent swaps of distinct uops, every 97th position *)
       let swaps = ref 0 in
       for i = 0 to n - 2 do
         if i mod 97 = 0 && trace.(i) <> trace.(i + 1) then begin
           let a = Array.copy trace in
           a.(i) <- trace.(i + 1);
           a.(i + 1) <- trace.(i);
           incr swaps;
           if digest a = base then
             Alcotest.failf "%s: uops %d and %d swapped, same digest" label i
               (i + 1)
         end
       done;
       Alcotest.(check bool) (label ^ ": swaps tried") true (!swaps > 50);
       (* a dropped or repeated last uop *)
       Alcotest.(check bool) (label ^ ": prefix differs") true
         (digest (Array.sub trace 0 (n - 1)) <> base);
       (* no allocation: 100k additions *)
       let st = T.digest_init () in
       let before = Gc.minor_words () in
       for i = 0 to 99_999 do
         T.digest_add st (Array.unsafe_get trace (i mod n))
       done;
       let words = Gc.minor_words () -. before in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %.0f minor words over 100k uops" label words)
         true (words < 100_000.))
    [ Exp.Straight_re; Exp.Riscv ];
  List.iter
    (fun (what, _) ->
       Alcotest.(check bool) (what ^ " mutated on some stream") true
         (Hashtbl.mem exercised what))
    mutations

(* ---------- the ISS's word representation ---------- *)

let workload_image target (w : Workloads.t) =
  (Straight_core.Compile.compile (Exp.codegen target) w.Workloads.source)
    .Straight_core.Compile.image

(* [Machine.save]'s bytes for a session stopped mid-run, by digest.
   Engine checkpoints and interval files embed them, so however the ISS
   holds its register and memory words, the encoding must not move. *)
let save_digests =
  [ ("dhrystone", Exp.Straight_re, 50_001,
     "c9dcc2877b9b49929ccdb54a09f17815");
    ("dhrystone", Exp.Riscv, 50_001, "ac4dda63fa070545c81753aaaa33f489");
    ("coremark", Exp.Straight_re, 120_003,
     "1028cbeaaf6108427602fcf4115b9488");
    ("coremark", Exp.Riscv, 120_003, "193f3c8bd8856ebdbf4ea85d7c281b5f") ]

let sized = function
  | "dhrystone" -> Workloads.dhrystone ~iterations:100 ()
  | _ -> Workloads.coremark ~iterations:2 ()

let test_save_bytes_pinned () =
  List.iter
    (fun (name, target, at, want) ->
       let label =
         Printf.sprintf "%s/%s at %d" name (Exp.target_label target) at
       in
       let s = Iss.Machine.start (workload_image target (sized name)) in
       Iss.Machine.run_session ~until:at s;
       Alcotest.(check int) (label ^ ": stopped there") at
         (Iss.Machine.retired s);
       let b = Buffer.create 65536 in
       Iss.Machine.save b s;
       Alcotest.(check string) (label ^ ": save digest") want
         (Digest.to_hex (Digest.string (Buffer.contents b))))
    save_digests

(* A bare run retires without allocating: register and memory words are
   unboxed ints, and a retirement nobody asked a uop of builds none.
   The bound leaves room for the console and the pages a run touches;
   a boxed word per register write is 3 words per retirement. *)
let test_bare_run_alloc () =
  List.iter
    (fun (name, target) ->
       let label = Printf.sprintf "%s/%s" name (Exp.target_label target) in
       let s = Iss.Machine.start (workload_image target (sized name)) in
       let before = Gc.minor_words () in
       Iss.Machine.run_session s;
       let words = Gc.minor_words () -. before in
       let per = words /. float_of_int (Iss.Machine.retired s) in
       Printf.printf "%s: %.3f minor words per retirement\n" label per;
       if per >= 0.5 then
         Alcotest.failf "%s: a bare run allocates %.2f minor words per \
                         retirement (bound 0.5)"
           label per)
    [ ("dhrystone", Exp.Straight_re); ("dhrystone", Exp.Riscv);
      ("coremark", Exp.Straight_re); ("coremark", Exp.Riscv) ]

(* Memory words round-trip through [write]/[read] and through
   [save]/[load], boundary values included, at aligned addresses on both
   edges of a page and in pages that share a page-table entry. *)
let boundary_words =
  [ 0l; 1l; -1l; 2l; -2l; Int32.min_int; Int32.max_int;
    Int32.add Int32.min_int 1l; Int32.sub Int32.max_int 1l; 31l; 32l; 33l;
    63l; 64l; -31l; -32l; 0x7FFFl; -0x8000l; 0xFFFFl; 0x10000l;
    0x8000_0001l; 0x7FFF_FFFEl ]

let word_gen =
  QCheck2.Gen.(
    frequency
      [ (3, oneofl boundary_words);
        (2, map Int32.of_int (int_range (-64) 64));
        (3, map Int32.of_int int) ])

(* an aligned address below the MMIO window: a page's first or last
   word, or any word, in a page drawn so that several alias in the
   direct-mapped table *)
let addr_gen =
  QCheck2.Gen.(
    let* page =
      frequency
        [ (3, int_range 0 3 >|= fun k -> 0x100 + (k * 64));
          (1, int_range 0 0xFFFEF) ]
    and* word = frequency [ (2, oneofl [ 0; 1023 ]); (1, int_range 0 1023) ] in
    return ((page lsl 12) + (4 * word)))

let prop_memory_round_trip =
  QCheck2.Test.make ~count:300 ~name:"memory: words round-trip, saved too"
    ~print:
      QCheck2.Print.(
        list (pair (Printf.sprintf "0x%x") Int32.to_string))
    QCheck2.Gen.(list_size (int_range 1 40) (pair addr_gen word_gen))
    (fun writes ->
       let m = Iss.Memory.create () in
       List.iter (fun (a, v) -> Iss.Memory.write m a v) writes;
       let last = Hashtbl.create 16 in
       List.iter (fun (a, v) -> Hashtbl.replace last a v) writes;
       let b = Buffer.create 4096 in
       Iss.Memory.save b m;
       let saved = Buffer.contents b in
       let m' = Iss.Memory.load (Bin.reader saved) in
       let b' = Buffer.create 4096 in
       Iss.Memory.save b' m';
       Hashtbl.fold
         (fun a v ok ->
            ok && Iss.Memory.read m a = v && Iss.Memory.read m' a = v
            && Iss.Memory.read_int m a = Int32.to_int v)
         last true
       && Buffer.contents b' = saved)

(* ---------- ALU and branch semantics on each ISS ---------- *)

(* The reference: RV32IM on [Int64], where the product of two signed
   words, or of a signed and an unsigned one, fits exactly, and the
   unsigned product wraps but keeps its high word. *)
module Ref = struct
  let s = Int64.of_int32
  let u x = Int64.logand (Int64.of_int32 x) 0xFFFF_FFFFL
  let w = Int64.to_int32
  let sh b = Int64.to_int (Int64.logand (s b) 31L)
  let bool c = if c then 1l else 0l

  let alu name a b =
    match name with
    | "add" -> w (Int64.add (s a) (s b))
    | "sub" -> w (Int64.sub (s a) (s b))
    | "and" -> w (Int64.logand (s a) (s b))
    | "or" -> w (Int64.logor (s a) (s b))
    | "xor" -> w (Int64.logxor (s a) (s b))
    | "sll" -> w (Int64.shift_left (s a) (sh b))
    | "srl" -> w (Int64.shift_right_logical (u a) (sh b))
    | "sra" -> w (Int64.shift_right (s a) (sh b))
    | "slt" -> bool (Int64.compare (s a) (s b) < 0)
    | "sltu" -> bool (Int64.compare (u a) (u b) < 0)
    | "mul" -> w (Int64.mul (s a) (s b))
    | "mulh" -> w (Int64.shift_right (Int64.mul (s a) (s b)) 32)
    | "mulhsu" -> w (Int64.shift_right (Int64.mul (s a) (u b)) 32)
    | "mulhu" -> w (Int64.shift_right_logical (Int64.mul (u a) (u b)) 32)
    | "div" -> if b = 0l then -1l else w (Int64.div (s a) (s b))
    | "divu" -> if b = 0l then -1l else w (Int64.div (u a) (u b))
    | "rem" -> if b = 0l then a else w (Int64.rem (s a) (s b))
    | "remu" -> if b = 0l then a else w (Int64.rem (u a) (u b))
    | op -> invalid_arg op

  let branch name a b =
    match name with
    | "beq" -> a = b
    | "bne" -> a <> b
    | "blt" -> Int64.compare (s a) (s b) < 0
    | "bge" -> Int64.compare (s a) (s b) >= 0
    | "bltu" -> Int64.compare (u a) (u b) < 0
    | "bgeu" -> Int64.compare (u a) (u b) >= 0
    | op -> invalid_arg op
end

(* One instruction ([insn], assembly) on a STRAIGHT ISS resumed with [a]
   at distance 1 and [b] at distance 2: the value it wrote and the words
   the pc advanced by.  A branch's target is two words ahead. *)
let straight_step insn a b =
  let image =
    SAsm.assemble_source
      (Printf.sprintf ".text\nmain:\n  %s\n  HALT\nfar:\n  HALT\n" insn)
  in
  let mem = Iss.Memory.create () in
  Iss.Memory.load_image mem image;
  let window = Array.make Straight_isa.Isa.max_dist 0l in
  window.(0) <- a;
  window.(1) <- b;
  let s =
    Iss.Straight_iss.resume image mem
      { Iss.Straight_iss.a_pc = image.Image.entry; a_sp = 0l; a_rp = 2;
        a_window = window }
  in
  Iss.Straight_iss.step s;
  let st = Iss.Straight_iss.checkpoint s in
  ( st.Iss.Straight_iss.a_window.(0),
    (st.Iss.Straight_iss.a_pc - image.Image.entry) / 4 )

(* The same on RV32IM with [a] in t0 and [b] in t1, writing t2. *)
let riscv_step insn a b =
  let image =
    RAsm.assemble_source
      (Printf.sprintf ".text\nmain:\n  %s\n  ebreak\nfar:\n  ebreak\n" insn)
  in
  let mem = Iss.Memory.create () in
  Iss.Memory.load_image mem image;
  let regs = Array.make 32 0l in
  regs.(5) <- a;
  regs.(6) <- b;
  let s =
    Iss.Riscv_iss.resume image mem
      { Iss.Riscv_iss.a_pc = image.Image.entry; a_regs = regs; a_instret = 0 }
  in
  Iss.Riscv_iss.step s;
  let st = Iss.Riscv_iss.checkpoint s in
  ( st.Iss.Riscv_iss.a_regs.(7),
    (st.Iss.Riscv_iss.a_pc - image.Image.entry) / 4 )

(* an immediate of [bits] signed bits, biased to its edges; shifts take
   [0, 31] only *)
let imm_gen ~bits ~shift =
  let hi = (1 lsl (bits - 1)) - 1 in
  QCheck2.Gen.(
    if shift then oneof [ oneofl [ 0; 1; 30; 31 ]; int_range 0 31 ]
    else
      oneof
        [ oneofl [ 0; 1; -1; 31; 32; hi; -hi - 1 ]; int_range (-hi - 1) hi ])

let print_case name =
  QCheck2.Print.(triple (fun s -> s) Int32.to_string Int32.to_string) name

module SI = Straight_isa.Isa
module RI = Riscv_isa.Isa

let straight_alu_ops =
  SI.[ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu; Mul; Mulh; Div;
       Divu; Rem; Remu ]

let riscv_alu_ops =
  RI.[ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And; Mul; Mulh; Mulhsu;
       Mulhu; Div; Divu; Rem; Remu ]

let alu_names =
  List.map (fun op -> "s:" ^ SI.alu_op_name op) straight_alu_ops
  @ List.map (fun op -> "r:" ^ RI.alu_name op) riscv_alu_ops

(* [name] is ["s:"] or ["r:"] and the ISA's mnemonic: the ISS and the
   ISA's [int32] [eval_alu] both compute the reference's word *)
let alu_agrees name a b =
  let isa = name.[0] and op = String.sub name 2 (String.length name - 2) in
  let want = Ref.alu (String.lowercase_ascii op) a b in
  if isa = 's' then
    let sop = List.find (fun o -> SI.alu_op_name o = op) straight_alu_ops in
    fst (straight_step (op ^ " [1] [2]") a b) = want
    && SI.eval_alu sop a b = want
  else
    let rop = List.find (fun o -> RI.alu_name o = op) riscv_alu_ops in
    fst (riscv_step (op ^ " t2, t0, t1") a b) = want
    && RI.eval_alu rop a b = want

(* every op on every pair of boundary words: shift counts of 32 and
   more, [min_int / -1], division by zero, unsigned compares across the
   sign bit, [mulh] of two [min_int]s *)
let test_alu_boundary_pairs () =
  List.iter
    (fun name ->
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 if not (alu_agrees name a b) then
                   Alcotest.failf "%s %ld %ld disagrees with the model" name
                     a b)
              boundary_words)
         boundary_words)
    alu_names

let prop_alu =
  QCheck2.Test.make ~count:3000
    ~name:"ALU ops on both ISSs match an Int64 model"
    ~print:print_case
    QCheck2.Gen.(
      triple (oneofl alu_names) word_gen word_gen)
    (fun (name, a, b) -> alu_agrees name a b)

let prop_alui =
  QCheck2.Test.make ~count:1000
    ~name:"ALU-immediate ops on both ISSs match Int64"
    ~print:QCheck2.Print.(triple (fun s -> s) Int32.to_string int)
    QCheck2.Gen.(
      let* isa = bool in
      let* op =
        if isa then
          map (fun o -> (SI.alui_op_name o, SI.alu_op_name (SI.alu_of_alui o)))
            (oneofl SI.[ Addi; Andi; Ori; Xori; Slli; Srli; Srai; Slti; Sltui ])
        else
          map (fun o -> (RI.alui_name o, RI.alu_name (RI.alu_of_alui o)))
            (oneofl RI.[ Addi; Slti; Sltiu; Xori; Ori; Andi; Slli; Srli; Srai ])
      in
      let shift =
        List.mem (String.lowercase_ascii (fst op)) [ "slli"; "srli"; "srai" ]
      in
      let* a = word_gen in
      let* i = imm_gen ~bits:(if isa then 16 else 12) ~shift in
      return ((if isa then "s:" else "r:") ^ fst op ^ ":" ^ snd op, a, i))
    (fun (name, a, i) ->
       match String.split_on_char ':' name with
       | [ isa; op; alu ] ->
         let want = Ref.alu (String.lowercase_ascii alu) a (Int32.of_int i) in
         if isa = "s" then
           fst (straight_step (Printf.sprintf "%s [1] %d" op i) a 0l) = want
         else
           fst (riscv_step (Printf.sprintf "%s t2, t0, %d" op i) a 0l) = want
       | _ -> false)

let prop_branch =
  QCheck2.Test.make ~count:1500
    ~name:"branches on both ISSs match an Int64 model"
    ~print:print_case
    QCheck2.Gen.(
      triple
        (oneofl
           [ "BEZ"; "BNZ"; "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" ])
        word_gen word_gen)
    (fun (op, a, b) ->
       match op with
       | "BEZ" | "BNZ" ->
         let taken = (a = 0l) = (op = "BEZ") in
         snd (straight_step (op ^ " [1] far") a b) = if taken then 2 else 1
       | _ ->
         snd (riscv_step (op ^ " t0, t1, far") a b)
         = if Ref.branch op a b then 2 else 1)

let suite =
  [ ("straight fib (fig 1a)", `Quick, test_straight_fib);
    ("straight loop + distance fixing", `Quick, test_straight_loop_and_branch);
    ("straight spadd/stack", `Quick, test_straight_spadd_and_memory);
    ("straight call/return", `Quick, test_straight_call_return);
    ("straight ST returns value", `Quick, test_straight_store_returns_value);
    ("straight zero register", `Quick, test_straight_zero_register);
    ("straight distance histogram", `Quick, test_distance_histogram);
    ("straight putchar", `Quick, test_straight_putchar);
    ("riscv loop", `Quick, test_riscv_loop);
    ("riscv call", `Quick, test_riscv_call);
    ("riscv data section", `Quick, test_riscv_memory_and_data);
    ("trace collection", `Quick, test_trace_collection);
    ("precise interrupt resume", `Quick, test_precise_interrupt);
    ("checkpoint window", `Quick, test_checkpoint_window_only);
    ("straight memory faults", `Quick, test_straight_memory_faults);
    ("riscv memory faults", `Quick, test_riscv_memory_faults);
    ("fuel exhaustion", `Quick, test_fuel_exhaustion);
    ("assembler errors", `Quick, test_asm_errors);
    ("machine: dispatch by image ISA", `Quick, test_machine_dispatch);
    ("trace digest: sensitive and allocation-free", `Quick,
     test_digest_sensitive);
    ("machine: save bytes pinned", `Quick, test_save_bytes_pinned);
    ("machine: no allocation per retirement", `Quick, test_bare_run_alloc) ]

let properties =
  ("ALU ops on every pair of boundary words", `Quick, test_alu_boundary_pairs)
  :: List.map QCheck_alcotest.to_alcotest
    [ prop_memory_round_trip; prop_alu; prop_alui; prop_branch ]

let () =
  Alcotest.run "iss" [ ("iss", suite); ("words", properties) ]
