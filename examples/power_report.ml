(* Power report: compare the activity-based power of the two 2-way cores
   over several workloads (the paper's Fig. 17 methodology).

     dune exec examples/power_report.exe *)

module Params = Ooo_common.Params
module Exp = Straight_core.Experiment
module Engine = Ooo_common.Engine
module Sim = Snapshot.Sim

(* One exact run: a session driven to completion. *)
let simulate ~model ~target w =
  match Sim.drive (lazy (Sim.start (Sim.spec ~model ~target w))) with
  | Sim.Completed r -> r
  | Sim.Stopped _ -> assert false (* no stop cycle given *)

let () =
  Printf.printf "%-14s %-10s %8s %8s %8s %10s\n" "workload" "core" "rename"
    "regfile" "other" "cycles";
  List.iter
    (fun (w : Workloads.t) ->
       let ss = simulate ~model:Params.ss_2way ~target:Exp.Riscv w in
       let st = simulate ~model:Params.straight_2way ~target:Exp.Straight_re w in
       let show name (r : Exp.result) =
         let rep = Power.analyze ~cycles:r.Exp.cycles r.Exp.stats.Engine.activity in
         Printf.printf "%-14s %-10s %8.2f %8.2f %8.2f %10d\n%!"
           w.Workloads.name name rep.Power.rename rep.Power.regfile
           rep.Power.other r.Exp.cycles
       in
       show "SS" ss;
       show "STRAIGHT" st)
    [ Workloads.sort ~n:32 ();
      Workloads.fib ~n:15 ();
      Workloads.coremark ~iterations:1 () ];
  Printf.printf
    "\n(energy units are arbitrary; the rename column is the paper's point:\n\
    \ STRAIGHT removes the RMT/free-list power and replaces it with narrow\n\
    \ RP adders — Fig. 17.)\n"
