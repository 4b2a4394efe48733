(* Pipeline explorer: sweep microarchitectural parameters of the STRAIGHT
   core and watch the effect on cycles/IPC — e.g. how much of the paper's
   gain comes from the shorter front end vs. the cheap recovery.

     dune exec examples/pipeline_explorer.exe *)

module Params = Ooo_common.Params
module Engine = Ooo_common.Engine

let workload = Workloads.coremark ~iterations:1 ()

let compile () =
  (Straight_core.Compile.compile
     (Straight_core.Experiment.codegen ~max_dist:Params.straight_max_dist
        Straight_core.Experiment.Straight_re)
     workload.Workloads.source)
    .Straight_core.Compile.image

let () =
  let image = compile () in
  Printf.printf "%-34s %10s %8s %8s %8s\n" "configuration" "cycles" "IPC"
    "bmisp" "L1D-miss";
  let show (p : Params.t) =
    let r = Ooo_common.Pipeline.run p image in
    let s = r.Ooo_common.Pipeline.stats in
    Printf.printf "%-34s %10d %8.2f %8d %8d\n%!" p.Params.name
      s.Engine.cycles s.Engine.ipc s.Engine.branch_mispredicts
      s.Engine.l1d_misses
  in
  show Params.straight_2way;
  show Params.straight_4way;
  (* front-end depth sweep *)
  List.iter
    (fun depth ->
       show { Params.straight_4way with
              Params.frontend_depth = depth;
              name = Printf.sprintf "STRAIGHT-4way fe=%d" depth })
    [ 4; 8; 10 ];
  (* scheduler size sweep *)
  List.iter
    (fun entries ->
       show { Params.straight_4way with
              Params.scheduler_entries = entries;
              name = Printf.sprintf "STRAIGHT-4way IQ=%d" entries })
    [ 16; 48; 192 ];
  (* ROB sweep: STRAIGHT's window can grow without walk penalty *)
  List.iter
    (fun rob ->
       show { Params.straight_4way with
              Params.rob_entries = rob;
              name = Printf.sprintf "STRAIGHT-4way ROB=%d" rob })
    [ 64; 448 ];
  (* TAGE predictor *)
  show (Params.with_tage Params.straight_4way)
