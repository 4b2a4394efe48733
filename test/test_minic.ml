(* Front-end tests: MiniC -> SSA IR -> reference interpreter.  The
   interpreter output is the oracle later reused against both back ends. *)

module Ir = Ssa_ir.Ir

let interp src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
  fst (Ssa_ir.Interp.run p)

let interp_opt src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
  fst (Ssa_ir.Interp.run p)

let check name expected src =
  Alcotest.(check string) (name ^ " (raw)") expected (interp src);
  Alcotest.(check string) (name ^ " (optimized)") expected (interp_opt src)

let test_arith () =
  check "arith" "17\n" {|
int main() {
  int x = 3;
  int y = 4;
  putint(x * y + 10 - 5);
  return 0;
}
|};
  check "precedence" "14\n" {| int main() { putint(2 + 3 * 4); } |};
  check "division" "-3\n" {| int main() { putint(-7 / 2); } |};
  check "modulo" "-1\n" {| int main() { putint(-7 % 2); } |};
  check "shifts" "-2\n" {| int main() { putint((-16 >> 3)); } |};
  check "bitops" "6\n" {| int main() { putint((12 & 7) ^ (2 | 0)); } |}

let test_control_flow () =
  check "if else" "1\n" {|
int main() { int x = 5; if (x > 3) putint(1); else putint(0); }
|};
  check "if no else" "7\n" {|
int main() { int x = 0; if (x) x = 99; putint(x + 7); }
|};
  check "while" "55\n" {|
int main() {
  int sum = 0;
  int i = 1;
  while (i <= 10) { sum += i; i++; }
  putint(sum);
}
|};
  check "for" "45\n" {|
int main() {
  int sum = 0;
  for (int i = 0; i < 10; i++) sum += i;
  putint(sum);
}
|};
  check "do while" "1\n" {|
int main() { int n = 0; do { n++; } while (n < 1); putint(n); }
|};
  check "break continue" "20\n" {|
int main() {
  int sum = 0;
  for (int i = 0; i < 100; i++) {
    if (i % 2) continue;
    if (i > 8) break;
    sum += i;
  }
  putint(sum);
}
|};
  check "nested loops" "100\n" {|
int main() {
  int count = 0;
  for (int i = 0; i < 10; i++)
    for (int j = 0; j < 10; j++)
      count++;
  putint(count);
}
|}

let test_short_circuit () =
  (* the RHS division would trap-ish (we define it, but the count proves
     the RHS did not evaluate) *)
  check "and short" "0\n" {|
int g = 0;
int touch() { g = g + 1; return 1; }
int main() {
  int x = 0;
  if (x && touch()) putint(99);
  putint(g);
}
|};
  check "or short" "0\n" {|
int g = 0;
int touch() { g = g + 1; return 1; }
int main() {
  int x = 1;
  if (x || touch()) ;
  putint(g);
}
|};
  check "and value" "1\n" {| int main() { putint(2 && 3); } |};
  check "or value" "1\n" {| int main() { putint(0 || 5); } |};
  check "not" "1\n" {| int main() { putint(!0); } |};
  check "ternary" "7\n3\n" {|
int main() {
  int x = 5;
  putint(x > 3 ? 7 : 9);
  putint(x < 3 ? 7 : 3);
}
|};
  check "ternary short circuit" "1\n0\n" {|
int g = 0;
int touch() { g = g + 1; return 42; }
int main() {
  putint(1 ? 1 : touch());
  putint(g);
}
|};
  check "nested ternary" "2\n" {|
int main() { int a = 0; int b = 1; putint(a ? 1 : b ? 2 : 3); }
|}

let test_functions () =
  check "call" "42\n" {|
int add(int a, int b) { return a + b; }
int main() { putint(add(20, 22)); }
|};
  check "recursion" "120\n" {|
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int main() { putint(fact(5)); }
|};
  check "fib recursive" "55\n" {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { putint(fib(10)); }
|};
  check "mutual recursion" "1\n" {|
int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
int main() { putint(is_even(10)); }
|}

let test_arrays_and_globals () =
  check "local array" "6\n" {|
int main() {
  int a[3];
  a[0] = 1; a[1] = 2; a[2] = 3;
  putint(a[0] + a[1] + a[2]);
}
|};
  check "global array init" "30\n" {|
int table[4] = {5, 10, 15};
int main() { putint(table[0] + table[1] + table[2] + table[3]); }
|};
  check "global scalar" "8\n" {|
int counter = 3;
int bump() { counter += 5; return 0; }
int main() { bump(); putint(counter); }
|};
  check "array via pointer param" "10\n" {|
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int data[4] = {1, 2, 3, 4};
int main() { putint(sum(data, 4)); }
|};
  check "variable index" "11\n" {|
int main() {
  int a[5];
  for (int i = 0; i < 5; i++) a[i] = i * 2;
  int k = 2;
  putint(a[k] + a[k + 1] - a[0] + 1);
}
|}

let test_chars_and_output () =
  check "putchar" "OK" {|
int main() { putchar('O'); putchar('K'); }
|};
  check "char arithmetic" "97\n" {| int main() { putint('a'); } |}

let test_scoping () =
  check "shadowing" "5\n3\n" {|
int main() {
  int x = 3;
  { int x = 5; putint(x); }
  putint(x);
}
|};
  check "loop variable scoped" "3\n" {|
int main() {
  int i = 3;
  for (int i = 0; i < 2; i++) ;
  putint(i);
}
|}

(* Functions can be "declared" by defining them later: check that forward
   calls work because arity checking uses the whole program. *)
let test_forward_calls () =
  check "forward call" "9\n" {|
int main() { putint(sq(3)); }
int sq(int x) { return x * x; }
|}

let test_errors () =
  let expect_fail src =
    match Minic.Lower.compile src with
    | exception
        Diag.Error
          { code = Diag.Lower_error | Diag.Parse_error | Diag.Lex_error; _ } ->
      ()
    | _ -> Alcotest.fail ("should not compile: " ^ src)
  in
  expect_fail {| int main() { return undefined_var; } |};
  expect_fail {| int main() { foo(1); } |};
  expect_fail {| int f(int a) { return a; } int main() { return f(1, 2); } |};
  expect_fail {| int main() { break; } |};
  expect_fail {| int main() { int x = 1; int x = 2; } |};
  expect_fail {| int x = 1; int x = 2; int main() {} |};
  expect_fail {| int main() { 3 = 4; } |};
  expect_fail {| int f() {} |} (* no main *)

let test_ssa_wellformed () =
  (* lowering must produce valid SSA for a gnarly CFG *)
  let p = Minic.Lower.compile {|
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2) n = 3 * n + 1;
    else n = n / 2;
    steps++;
  }
  return steps;
}
int main() {
  int total = 0;
  for (int i = 1; i < 30; i++) {
    int s = collatz(i);
    if (s > 100) break;
    total += s;
  }
  putint(total);
  return 0;
}
|} in
  List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
  (* critical edge splitting preserves semantics and validity *)
  let out_before = fst (Ssa_ir.Interp.run p) in
  List.iter Ssa_ir.Passes.split_critical_edges p.Ir.funcs;
  List.iter Ssa_ir.Analysis.validate p.Ir.funcs;
  let out_after = fst (Ssa_ir.Interp.run p) in
  Alcotest.(check string) "split preserves semantics" out_before out_after;
  (* after splitting, no edge is critical *)
  List.iter
    (fun f ->
       let cfg = Ssa_ir.Analysis.build f in
       Array.iteri
         (fun i _ ->
            if List.length cfg.Ssa_ir.Analysis.succs.(i) > 1 then
              List.iter
                (fun s ->
                   Alcotest.(check bool)
                     "no critical edge" true
                     (List.length cfg.Ssa_ir.Analysis.preds.(s) <= 1))
                cfg.Ssa_ir.Analysis.succs.(i))
         cfg.Ssa_ir.Analysis.blocks)
    p.Ir.funcs

let test_optimizer () =
  (* constant folding collapses a constant pipeline to a single return *)
  let p = Minic.Lower.compile {|
int main() {
  int a = 2 * 3;
  int b = a + 4;
  int c = b * b;
  putint(c);
}
|} in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  let main = List.find (fun f -> f.Ir.name = "main") p.Ir.funcs in
  let n_insts =
    List.fold_left (fun acc b -> acc + List.length b.Ir.insts) 0 main.Ir.blocks
  in
  (* after folding: only the putint store (plus possibly its value) remains *)
  Alcotest.(check bool) "folded to few insts" true (n_insts <= 2);
  Alcotest.(check string) "still correct" "100\n" (fst (Ssa_ir.Interp.run p))

let suite =
  [ ("arithmetic", `Quick, test_arith);
    ("control flow", `Quick, test_control_flow);
    ("short circuit", `Quick, test_short_circuit);
    ("functions", `Quick, test_functions);
    ("arrays and globals", `Quick, test_arrays_and_globals);
    ("chars and output", `Quick, test_chars_and_output);
    ("scoping", `Quick, test_scoping);
    ("forward calls", `Quick, test_forward_calls);
    ("front-end errors", `Quick, test_errors);
    ("ssa wellformedness", `Quick, test_ssa_wellformed);
    ("optimizer", `Quick, test_optimizer) ]

let () = Alcotest.run "minic" [ ("minic", suite) ]
