(* Distance profile: measure the source-operand distance distribution of a
   program (the paper's Fig. 16) and check how tight an operand field the
   code would actually need.

     dune exec examples/distance_profile.exe *)

let () =
  List.iter
    (fun (w : Workloads.t) ->
       let out =
         Straight_core.Compile.compile
           (Straight_core.Experiment.codegen ~max_dist:1023
              Straight_core.Experiment.Straight_re)
           w.Workloads.source
       in
       let r =
         Iss.Straight_iss.run
           ~config:{ Iss.Straight_iss.collect_trace = false;
                     collect_dist = true; max_insns = 50_000_000 }
           out.Straight_core.Compile.image
       in
       let hist = r.Iss.Trace.dist_histogram in
       let total = Array.fold_left ( + ) 0 hist in
       Printf.printf "\n=== %s: %d operands ===\n" w.Workloads.name total;
       (* textual histogram of the first 32 distances *)
       let maxv = Array.fold_left max 1 hist in
       for d = 1 to 32 do
         let n = hist.(d) in
         let bar = String.make (60 * n / maxv) '#' in
         if n > 0 then Printf.printf "%4d %8d %s\n" d n bar
       done;
       let cumulative = ref 0 in
       let reported = ref [ 1; 2; 4; 8; 16; 32 ] in
       for d = 0 to Array.length hist - 1 do
         cumulative := !cumulative + hist.(d);
         match !reported with
         | r :: rest when d = r ->
           Printf.printf "<= %-4d : %5.1f%%\n" d
             (100.0 *. float_of_int !cumulative /. float_of_int total);
           reported := rest
         | _ -> ()
       done)
    [ Workloads.coremark ~iterations:1 ();
      Workloads.dhrystone ~iterations:20 ();
      Workloads.sort ~n:32 () ]
