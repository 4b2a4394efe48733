(* Quickstart: compile a MiniC program for STRAIGHT, inspect the generated
   distance-operand assembly, and run it end to end.

     dune exec examples/quickstart.exe *)

let source = {|
int fib(int n) {
  int a = 0;
  int b = 1;
  for (int i = 0; i < n; i++) {
    int t = a + b;
    a = b;
    b = t;
  }
  return a;
}

int main() {
  for (int n = 0; n < 10; n++) putint(fib(n));
  return 0;
}
|}

let () =
  print_endline "=== STRAIGHT assembly (RE+, max distance 31) ===";
  let out =
    Straight_core.Compile.compile
      (Straight_core.Experiment.codegen ~max_dist:31
         Straight_core.Experiment.Straight_re)
      source
  in
  print_string (Lazy.force out.Straight_core.Compile.listing);
  (* the same compile's image, executed on the functional simulator *)
  let image = out.Straight_core.Compile.image in
  let stats = Option.get out.Straight_core.Compile.stats in
  let run = Iss.Straight_iss.run image in
  Printf.printf "=== program output ===\n%s" run.Iss.Trace.output;
  Printf.printf "=== statistics ===\n";
  Printf.printf "static instructions : %d (%d RMOV, %d NOP)\n"
    stats.Straight_cc.Codegen.total stats.Straight_cc.Codegen.rmov
    stats.Straight_cc.Codegen.nop;
  Printf.printf "retired instructions: %d\n" run.Iss.Trace.retired;
  (* and time it on the 2-way STRAIGHT core of Table I *)
  let r = Ooo_common.Pipeline.run Straight_core.Models.straight_2way image in
  Printf.printf "STRAIGHT-2way cycles: %d (IPC %.2f)\n"
    r.Ooo_common.Pipeline.stats.Ooo_common.Engine.cycles
    r.Ooo_common.Pipeline.stats.Ooo_common.Engine.ipc
