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

(* Precise interrupts (Section III-A): interrupting at any instruction
   boundary and resuming from {PC, SP, RP, register window} must be
   indistinguishable from an uninterrupted run. *)
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
  let prog = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize prog.Ssa_ir.Ir.funcs;
  let config =
    { Straight_cc.Codegen.max_dist = 31; level = Straight_cc.Codegen.Re_plus }
  in
  let image =
    (Straight_core.Compile.backend (Straight_core.Compile.Straight config) prog)
      .Straight_core.Compile.image
  in
  (* both collections on: the interrupted run must also return the
     whole trace and distance histogram, not just the resumed half *)
  let config =
    { Iss.Straight_iss.default_config with
      collect_trace = true; collect_dist = true }
  in
  let reference = Iss.Straight_iss.run ~config image in
  List.iter
    (fun at ->
       let r = Iss.Straight_iss.run_with_interrupt ~config ~at image in
       Alcotest.(check string)
         (Printf.sprintf "interrupt at %d: same output" at)
         reference.Iss.Trace.output r.Iss.Trace.output;
       Alcotest.(check int)
         (Printf.sprintf "interrupt at %d: same retired count" at)
         reference.Iss.Trace.retired r.Iss.Trace.retired;
       Alcotest.(check int)
         (Printf.sprintf "interrupt at %d: same trace length" at)
         (Array.length reference.Iss.Trace.trace)
         (Array.length r.Iss.Trace.trace);
       Alcotest.(check string)
         (Printf.sprintf "interrupt at %d: same trace digest" at)
         (Iss.Trace.digest reference.Iss.Trace.trace)
         (Iss.Trace.digest r.Iss.Trace.trace);
       Alcotest.(check (array int))
         (Printf.sprintf "interrupt at %d: same distance histogram" at)
         reference.Iss.Trace.dist_histogram r.Iss.Trace.dist_histogram)
    [ 1; 7; 50; 123; 500; 1234 ]

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
   with Assembler.Asm.Asm_error _ -> ());
  (try
     ignore (SAsm.assemble_source ".text\nx:\nx:\n  HALT\n");
     Alcotest.fail "duplicate label accepted"
   with Assembler.Asm.Asm_error _ -> ())

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
            let m =
              Iss.Machine.run ~collect_trace:true ~collect_dist:true image
            in
            Alcotest.(check string) (label ^ ": output") own.Iss.Trace.output
              m.Iss.Trace.output;
            Alcotest.(check int) (label ^ ": retired") own.Iss.Trace.retired
              m.Iss.Trace.retired;
            Alcotest.(check (array int)) (label ^ ": distance histogram")
              own.Iss.Trace.dist_histogram m.Iss.Trace.dist_histogram;
            Alcotest.(check string) (label ^ ": trace digest")
              (Iss.Trace.digest own.Iss.Trace.trace)
              (Iss.Trace.digest m.Iss.Trace.trace);
            let static = Iss.Machine.static_uop image in
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
              (!stops > 0))
         [ Exp.Straight_raw; Exp.Straight_re; Exp.Riscv ])
    [ Workloads.fib (); Workloads.wasm_sieve () ]

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
    ("machine: dispatch by image ISA", `Quick, test_machine_dispatch) ]

let () = Alcotest.run "iss" [ ("iss", suite) ]
