(* [exact]: cycle-level simulation of the paper's Figs. 11/12 points —
   every Table-I model on dhrystone and coremark, STRAIGHT models running
   RE+ code — plus a multi-iteration stream on one STRAIGHT and one
   superscalar model, lockstep checker armed.  The engine does
   most of this work.  The stream trace is long enough that peak RSS
   follows trace materialization, which the short kernels do not show.

   Set-up compiles every image and runs the reference interpreter; the
   pass runs each configuration the way [straightsim] does, through the
   target's pipeline library: the ISS with full trace collection, then
   the engine over the trace.  Only output and exit value are compared:
   these programs keep stack addresses in globals, and the interpreter's
   frames do not live at the machine's stack addresses.  The pipelines
   report no exit value, so the check takes it from one untimed ISS run
   of each image. *)

module Params = Ooo_common.Params
module Codegen = Straight_cc.Codegen

let max_dist = Params.straight_max_dist
let re = Layer.Straight (Codegen.Re_plus, max_dist)

let stream_iterations = 2

let programs () =
  [ Workloads.dhrystone ~iterations:100 (); Workloads.coremark ~iterations:2 ();
    Workloads.stream ~iterations:stream_iterations () ]

let configs : (Params.t * Layer.target * string) list =
  List.concat_map
    (fun prog ->
       [ (Params.ss_2way, Layer.Riscv, prog); (Params.straight_2way, re, prog);
         (Params.ss_4way, Layer.Riscv, prog); (Params.straight_4way, re, prog) ])
    [ "dhrystone"; "coremark" ]
  @ [ (Params.straight_4way, re, "stream");
      (Params.ss_4way, Layer.Riscv, "stream") ]

let label (params, target, prog) =
  Printf.sprintf "%s/%s/%s" params.Params.name (Layer.target_label target) prog

type input = {
  refs : (string * Layer.observed) list;                  (* per program *)
  images : ((string * Layer.target) * Assembler.Image.t) list;
}

let setup ~seed:_ =
  let progs = programs () in
  let refs =
    List.map
      (fun (w : Workloads.t) ->
         (w.Workloads.name, Layer.interp ~layout:[] (Layer.front w.Workloads.source)))
      progs
  in
  let images =
    List.sort_uniq compare (List.map (fun (_, t, prog) -> (prog, t)) configs)
    |> List.map (fun (prog, t) ->
        let w = List.find (fun w -> w.Workloads.name = prog) progs in
        ((prog, t), Layer.compile t w.Workloads.source))
  in
  { refs; images }

let prepare _ = ()

type result = {
  r_label : string;
  r_prog : string;
  r_target : Layer.target;
  r_run : Layer.exact;
}

let pass (input : input) (tally : Layer.tally) : result list =
  List.mapi (fun op c -> (op, c)) configs
  |> List.filter_map (fun (op, ((params, target, prog) as c)) ->
      let label = label c in
      Layer.attempt tally ~op ~label (fun () ->
          let img = List.assoc (prog, target) input.images in
          { r_label = label; r_prog = prog; r_target = target;
            r_run = Layer.exact ~label target params img }))

let check (input : input) (cold : result list) (warm : result list) =
  let exit_values =
    List.map
      (fun (key, img) ->
         (key, (Layer.iss (snd key) ~layout:[] img).Layer.exit_value))
      input.images
  in
  List.concat_map
    (fun r ->
       let run = r.r_run and expected = List.assoc r.r_prog input.refs in
       (* globals are not compared, see above *)
       Check.observed ~expected
         { expected with
           Layer.output = run.Layer.output;
           exit_value = List.assoc (r.r_prog, r.r_target) exit_values }
       @ Check.engine ~retired:run.Layer.retired run.Layer.stats
       |> List.map (fun m -> (r.r_label, m)))
    (cold @ warm)
