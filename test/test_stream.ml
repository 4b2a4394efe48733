(* Streamed ≡ array-fed.

   The pipeline feeds the cycle engine through a bounded window over a
   live ISS session; the interval sampler and the engine-only perf suite
   feed it a collected array through the same window.  Seeded over the
   built-in workloads at short sizes × both ISAs × the four Table-I
   models, with the lockstep checker armed, this checks:

   - [Pipeline.run] returns the same full [Engine.stats] as [Engine.run]
     over the same ISS run collected into an array;
   - checkpointing the streamed engine at a seeded cycle, restoring it
     over a fresh stream (which skips the ISS ahead to the committed
     count) and finishing equals the uninterrupted run;
   - the window's high-water mark stays within the engine's in-flight
     span: the largest ROB plus front-end-queue occupancy seen, plus one
     fetch group. *)

module Engine = Ooo_common.Engine
module Params = Ooo_common.Params
module Window = Ooo_common.Window
module Checker = Ooo_common.Checker
module Bin = Ooo_common.Bin
module Exp = Straight_core.Experiment
module Sim = Snapshot.Sim
module Rng = Fuzz.Rng

let seed = 14

(* every built-in workload, sized from the seed to a few thousand
   retirements *)
let workloads rng =
  [ Workloads.fib ~n:(Rng.range rng 7 10) ();
    Workloads.iota ~n:(Rng.range rng 24 96) ();
    Workloads.sort ~n:(Rng.range rng 6 14) ();
    Workloads.quicksort ~n:(Rng.range rng 12 40) ();
    Workloads.pointer_chase ~nodes:(Rng.range rng 64 256)
      ~hops:(Rng.range rng 200 600) ();
    Workloads.dhrystone ~iterations:(Rng.range rng 1 3) ();
    Workloads.coremark ~iterations:1 ();
    Workloads.stream ~iterations:1 ();
    Workloads.wasm_sieve ~limit:(Rng.range rng 60 200) ();
    Workloads.wasm_crc32 ~nbytes:(Rng.range rng 4 12) ();
    Workloads.wasm_expr ~iters:(Rng.range rng 5 20) () ]

(* the four Table-I models, each with its own target *)
let models =
  [ (Params.ss_2way, Exp.Riscv); (Params.ss_4way, Exp.Riscv);
    (Params.straight_2way, Exp.Straight_re);
    (Params.straight_4way, Exp.Straight_re) ]

let max_dist = Params.straight_max_dist

(* the pipeline's entry points for one target, over a compiled image *)
type pipeline = {
  run : unit -> Engine.stats;
  start : unit -> Engine.t;
  resume : Bin.reader -> Engine.t;
  array_fed : unit -> Engine.stats;
}

let pipeline (params : Params.t) target image : pipeline =
  let module P = Ooo_common.Pipeline in
  let checker retired =
    Checker.create ~max_dist ~rename:params.Params.rename ~retired ()
  in
  (* the reference collects its trace from the target's own ISS, not
     through [Iss.Machine], which the pipeline under test runs on *)
  let reference_run () =
    match target with
    | Exp.Riscv ->
      Iss.Riscv_iss.run
        ~config:{ Iss.Riscv_iss.default_config with collect_trace = true }
        image
    | Exp.Straight_raw | Exp.Straight_re ->
      Iss.Straight_iss.run
        ~config:{ Iss.Straight_iss.default_config with collect_trace = true }
        image
  in
  { run = (fun () -> (P.run ~max_dist params image).P.stats);
    start = (fun () -> (P.start ~max_dist params image).P.engine);
    resume = (fun r -> (P.resume ~max_dist params image r).P.engine);
    array_fed =
      (fun () ->
         let r = reference_run () in
         Engine.run params ~window:(Window.of_array r.Iss.Trace.trace)
           ~decode_static:(Iss.Machine.static_uop image)
           ~checker:(checker r.Iss.Trace.retired) ()) }

let describe (s : Engine.stats) =
  Printf.sprintf "cycles %d, committed %d, checked %d, wrong-path %d, \
                  mispredicts %d+%d, l1d %d/%d"
    s.Engine.cycles s.Engine.committed s.Engine.commits_checked
    s.Engine.wrong_path_fetched s.Engine.branch_mispredicts
    s.Engine.return_mispredicts s.Engine.l1d_misses s.Engine.l1d_accesses

let check_stats label (want : Engine.stats) (got : Engine.stats) =
  if want <> got then
    Alcotest.failf "%s: stats differ\n  want %s\n  got  %s" label
      (describe want) (describe got)

let test_config (params, target) (w : Workloads.t) () =
  let label =
    Printf.sprintf "%s/%s/%s" params.Params.name (Exp.target_label target)
      w.Workloads.name
  in
  let rng = Rng.make (seed + Hashtbl.hash label) in
  let image =
    Sim.compile (Sim.spec ~max_dist ~model:params ~target w)
  in
  let p = pipeline params target image in
  let streamed = p.run () in
  Alcotest.(check bool) (label ^ ": checker armed") true
    (streamed.Engine.commits_checked > 0);
  check_stats (label ^ ": Pipeline.run vs array-fed Engine.run")
    (p.array_fed ()) streamed;
  (* checkpoint at a seeded cycle of the streamed run, then finish the
     original while tracking the in-flight span *)
  let stop = Rng.range rng 1 (max 1 (streamed.Engine.cycles - 1)) in
  let e = p.start () in
  let peak = ref 0 in
  let step () =
    Engine.step e;
    peak := max !peak (Engine.inflight e)
  in
  while Engine.cycle e < stop && not (Engine.finished e) do step () done;
  let image_buf = Buffer.create 65536 in
  Engine.save image_buf e;
  while not (Engine.finished e) do step () done;
  check_stats (label ^ ": stepped session") streamed (Engine.finish e);
  let bound = !peak + params.Params.fetch_width in
  let hw = Window.high_water (Engine.window e) in
  if hw > bound then
    Alcotest.failf "%s: window high-water %d exceeds in-flight span %d" label
      hw bound;
  let restored = p.resume (Bin.reader (Buffer.contents image_buf)) in
  Alcotest.(check int) (label ^ ": restored at the checkpoint cycle") stop
    (Engine.cycle restored);
  while not (Engine.finished restored) do Engine.step restored done;
  check_stats
    (Printf.sprintf "%s: restored at cycle %d" label stop)
    streamed (Engine.finish restored)

let suite =
  List.concat_map
    (fun ((params, _) as m) ->
       List.map
         (fun (w : Workloads.t) ->
            ( Printf.sprintf "%s %s (seed %d)" params.Params.name
                w.Workloads.name seed,
              `Quick,
              test_config m w ))
         (workloads (Rng.make (seed + Hashtbl.hash params.Params.name))))
    models

let () = Alcotest.run "stream" [ ("streamed vs array-fed", suite) ]
