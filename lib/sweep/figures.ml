(* FIGURES.md: the paper's tables from sweep records (see figures.mli). *)

module R = Runner
module Params = Ooo_common.Params
module Exp = Straight_core.Experiment
module Compile = Straight_core.Compile

let pf = Printf.bprintf
let f3 = Printf.sprintf "%.3f"
let ratio a b = float_of_int a /. float_of_int b

(* distinct values of a projection, in first-seen order, and the groups
   of records sharing one, in the same order *)
let distinct f xs =
  List.fold_left (fun acc x -> if List.mem (f x) acc then acc else acc @ [ f x ]) [] xs

let groups f xs = List.map (fun k -> List.filter (fun x -> f x = k) xs) (distinct f xs)

let table b header rows =
  let line cells = pf b "| %s |\n" (String.concat " | " cells) in
  line header;
  line (List.map (fun _ -> "---") header);
  List.iter line rows;
  pf b "\n"

(* ---------- what a record is ---------- *)

(* A record is a grid point when its params hash is the digest of the
   model its axis values name ([rob] overridden or not); a hand-built
   variant is neither. *)
let axis_digest ?rob (r : R.record) =
  match Grid.machine_of_label r.R.machine, Params.predictor_of_name r.R.predictor with
  | Some m, Some predictor ->
    Some
      (Params.digest
         (Grid.model m ~width:r.R.width ~rob ~sched:None ~predictor
            ~ideal:r.R.ideal))
  | _ -> None

let stock r = axis_digest r = Some r.R.params_hash
let rob_point r = axis_digest ~rob:r.R.rob r = Some r.R.params_hash
let paper_code (r : R.record) = r.R.max_dist = Params.straight_max_dist && r.R.opt = "O2"
let gshare_real (r : R.record) = r.R.predictor = "gshare" && not r.R.ideal
let exact (r : R.record) = r.R.sample = None
let plain r = stock r && paper_code r && gshare_real r && exact r
let is m (r : R.record) = r.R.machine = Grid.machine_label m
let straight r = is Grid.Straight_raw r || is Grid.Straight_re r
let find = List.find_opt

let config (r : R.record) =
  match Grid.machine_of_label r.R.machine with
  | Some Grid.Ss -> "SS"
  | Some (Grid.Ss_ckpt n) -> Printf.sprintf "SS+%d checkpoints" n
  | Some Grid.Straight_raw -> "STRAIGHT(RAW)"
  | Some Grid.Straight_re -> "STRAIGHT(RE+)"
  | None -> r.R.machine

(* one workload run: the same program at the same fidelity *)
let run_key (r : R.record) =
  (r.R.workload, r.R.iterations, Option.map Sample.Spec.to_string r.R.sample)

let run_label (r : R.record) =
  Printf.sprintf "%s ×%d%s" r.R.workload r.R.iterations
    (match r.R.sample with
     | None -> ""
     | Some sp -> " (sampled " ^ Sample.Spec.to_string sp ^ ")")

(* ---------- the paper's values ---------- *)

(* Read off the MICRO 2018 figures, keyed by table and row. *)
let paper_values =
  [ (* Figs. 11/12 and 14: relative performance vs the same-width SS *)
    ("gshare 4 coremark straight-re", "1.188");
    ("gshare 4 coremark straight-raw", "~0.96");
    ("gshare 4 dhrystone straight-re", "1.157");
    ("gshare 4 dhrystone straight-raw", "~1.15");
    ("gshare 2 coremark straight-re", "1.055");
    ("gshare 2 coremark straight-raw", "~0.78");
    ("gshare 2 dhrystone straight-re", "0.926");
    ("gshare 2 dhrystone straight-raw", "~0.80");
    ("tage 4 coremark straight-re", "~1.10"); ("tage 2 coremark straight-re", "~1.0");
    (* Fig. 13: CoreMark, normalized to SS-2way *)
    ("penalty coremark SS 2-way", "1.00"); ("penalty coremark SS 4-way", "~1.30");
    ("penalty coremark SS 2-way no-penalty", "~1.27");
    ("penalty coremark SS 4-way no-penalty", "~1.65");
    ("penalty coremark STRAIGHT(RE+) 2-way", "~1.05");
    ("penalty coremark STRAIGHT(RE+) 4-way", "~1.55");
    (* Figs. 15 and 16 *)
    ("mix coremark RMOV", "RAW ~0.8, RE+ ~0.2");
    ("mix coremark TOTAL", "RAW ~2.2, RE+ ~1.2");
    ("dist coremark", "~0.30 at 1; most within 32; max < 127");
    ("dist dhrystone", "~0.40 at 1; most within 32; max < 127");
    (* Fig. 17: 2-way, per module normalized to SS at 1.0x *)
    ("power 2 SS rename / other 1.0x", "5.7% (anchor)");
    ("power 2 Rename Logic 1.0x", "STRAIGHT: almost removed");
    ("power 2 Register File 1.0x", "STRAIGHT: < 1.18");
    ("power 2 Other Modules 1.0x", "STRAIGHT: < 1.05");
    ("power 2 Other Modules 4.0x", "both: ~4.3 (superlinear)") ]

let paper_value fmt =
  Printf.ksprintf
    (fun key -> Option.value ~default:"" (List.assoc_opt key paper_values))
    fmt

(* A row carries the paper's value only when its run is exact and of the
   paper grid's size. *)
let paper ~quick (r : R.record) fmt =
  let paper_size =
    exact r
    && (Workloads.resolve ~quick r.R.workload).Workloads.iterations
       = r.R.iterations
  in
  Printf.ksprintf (fun key -> if paper_size then paper_value "%s" key else "") fmt

(* ---------- Table I and Figs. 10 and 16: no cycles simulated ---------- *)

let table1 b =
  pf b "## Table I: evaluated models\n\n";
  let s = string_of_int and models = Straight_core.Models.all in
  let row name f = name :: List.map f models in
  table b ("parameter" :: List.map (fun m -> m.Params.name) models)
    [ row "ISA" (fun m -> if m.Params.rename = Params.Rp then "STRAIGHT" else "RV32IM");
      row "Fetch width" (fun m -> s m.Params.fetch_width);
      row "Front-end latency" (fun m -> s m.Params.frontend_depth);
      row "ROB capacity" (fun m -> s m.Params.rob_entries);
      row "Scheduler" (fun m ->
          Printf.sprintf "%d way, %d ent" m.Params.issue_width
            m.Params.scheduler_entries);
      row "Register file" (fun m ->
          match m.Params.rename with
          | Params.Rmt { phys_regs } | Params.Rmt_checkpoint { phys_regs; _ } ->
            s phys_regs
          | Params.Rp ->
            Printf.sprintf "%d (31+%d)" (Params.straight_max_dist + m.Params.rob_entries)
              m.Params.rob_entries);
      row "LSQ" (fun m ->
          Printf.sprintf "LD %d / ST %d" m.Params.ldq_entries m.Params.stq_entries);
      row "Exec units" (fun m ->
          Printf.sprintf "A%d M%d D%d B%d Mem%d" m.Params.n_alu m.Params.n_mul
            m.Params.n_div m.Params.n_bc m.Params.n_mem);
      row "Commit width" (fun m -> s m.Params.commit_width);
      row "L3 cache" (fun m -> if m.Params.l3 = None then "N/A" else "2 MiB/42cyc") ]

let compile_1023 target (w : Workloads.t) =
  Compile.compile (Exp.codegen ~max_dist:1023 target) w.Workloads.source

let fig10 b =
  pf b "## Fig. 10: iota() compiled RAW vs RE+ (max distance 1023)\n\n";
  List.iter
    (fun (target, label) ->
       let out = compile_1023 target (Workloads.iota ~n:16 ()) in
       let st = Option.get out.Compile.stats in
       pf b "%s: %d static instructions (%d RMOV, %d NOP), %d retired.\n\n```\n" label
         st.Straight_cc.Codegen.total st.Straight_cc.Codegen.rmov
         st.Straight_cc.Codegen.nop
         (Iss.Straight_iss.run out.Compile.image).Iss.Trace.retired;
       (* the iota function body only *)
       ignore
         (List.fold_left
            (fun in_f l ->
               let in_f =
                 l = "f_iota:" || (in_f && not (String.starts_with ~prefix:"f_" l))
               in
               if in_f then pf b "%s\n" l;
               in_f)
            false
            (String.split_on_char '\n' (Lazy.force out.Compile.listing)));
       pf b "```\n\n")
    [ (Exp.Straight_raw, "RAW (basic algorithm, Sections IV-A..C)");
      (Exp.Straight_re, "RE+ (redundancy elimination, Section IV-D)") ]

let fig16 ~quick b rs =
  pf b
    "## Fig. 16: cumulative fraction of source operand distances (RE+, max \
     distance 1023)\n\n";
  let points = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  table b (("workload" :: List.map string_of_int points) @ [ "max used"; "paper" ])
    (List.map
       (fun name ->
          let hist =
            (Iss.Straight_iss.run
               ~config:{ Iss.Straight_iss.collect_trace = false; collect_dist = true;
                         max_insns = 50_000_000 }
               (compile_1023 Exp.Straight_re (Workloads.resolve ~quick name))
                 .Compile.image)
              .Iss.Trace.dist_histogram
          in
          let upto d =
            Array.fold_left ( + ) 0 (Array.sub hist 0 (min (d + 1) (Array.length hist)))
          in
          let max_used = ref 0 in
          Array.iteri (fun d n -> if n > 0 then max_used := d) hist;
          (name
           :: List.map (fun d -> f3 (ratio (upto d) (upto (Array.length hist)))) points)
          @ [ string_of_int !max_used; paper_value "dist %s" name ])
       (distinct (fun r -> r.R.workload) rs))

(* ---------- one row per record ---------- *)

let rel (base : R.record option) (r : R.record) =
  match base with Some b -> f3 (ratio b.R.cycles r.R.cycles) | None -> "—"

(* Figs. 11/12 (gshare) and Fig. 14 (TAGE): every model on the paper's
   code, normalized to the stock SS of its run and width, with its CPI
   stack.  Hand-built variants (the front-end-depth ablation) sit beside
   the stock models. *)
let perf ~quick b ~title ~predictor rs =
  let rs =
    List.filter
      (fun r ->
         not (rob_point r) && paper_code r && r.R.predictor = predictor && not r.R.ideal)
      rs
  in
  if rs <> [] then begin
    pf b "## %s\n\n" title;
    pf b "SPADD: dispatch slots lost to the SPADD limit, which the paper calls\n\
          negligible (Section III-B).\n\n";
    table b
      ([ "workload"; "model"; "code"; "cycles"; "insts"; "mispredicts"; "SPADD";
         "rel. perf"; "paper" ]
       @ List.map fst (Ooo_common.Stats.cpi_to_assoc Ooo_common.Stats.empty_cpi))
      (List.concat_map
         (fun g ->
            let base = find (fun r -> stock r && is Grid.Ss r) g in
            List.map
              (fun (r : R.record) ->
                 [ run_label r; r.R.model; config r; string_of_int r.R.cycles;
                   string_of_int r.R.committed; string_of_int r.R.branch_mispredicts;
                   Printf.sprintf "%d (%.4f%%)" r.R.spadd_stall_slots
                     (100.0 *. ratio r.R.spadd_stall_slots r.R.cycles);
                   rel base r;
                   (if stock r then
                      paper ~quick r "%s %d %s %s" predictor r.R.width r.R.workload
                        r.R.machine
                    else "") ]
                 @ List.map (fun (_, n) -> string_of_int n)
                   (Ooo_common.Stats.cpi_to_assoc r.R.cpi))
              g)
         (groups
            (fun r -> (r.R.width, run_key r))
            (List.stable_sort (fun (a : R.record) c -> compare c.R.width a.R.width) rs)))
  end

(* Fig. 13: every run with a zero-penalty point, normalized to SS at its
   narrowest width. *)
let penalty ~quick b rs =
  let rs =
    List.filter (fun r -> stock r && paper_code r && r.R.predictor = "gshare") rs
  in
  match List.filter (List.exists (fun r -> r.R.ideal)) (groups run_key rs) with
  | [] -> ()
  | runs ->
    pf b "## Fig. 13: misprediction-penalty effect, normalized to SS at the narrowest \
          width\n\n`no-penalty` models zero-cost recovery (oracle redirect).\n\n";
    table b [ "workload"; "config"; "cycles"; "rel. perf"; "paper" ]
      (List.concat_map
         (fun g ->
            let key (r : R.record) = (r.R.width, r.R.machine, r.R.ideal) in
            let g = List.sort (fun a c -> compare (key a) (key c)) g in
            let base = find (fun r -> is Grid.Ss r && not r.R.ideal) g in
            List.map
              (fun (r : R.record) ->
                 let label =
                   Printf.sprintf "%s %d-way%s" (config r) r.R.width
                     (if r.R.ideal then " no-penalty" else "")
                 in
                 [ run_label r; label; string_of_int r.R.cycles; rel base r;
                   paper ~quick r "penalty %s %s" r.R.workload label ])
              g)
         runs)

(* ---------- one row per configuration value ---------- *)

(* One table per run and width: a row per [value], a column per machine
   among [cols g], a cell (by default its cycles) per record. *)
let cycle_grids b ~title ?(note = "") ~row_name ~value ~show
    ?(cell = fun _ r -> string_of_int r.R.cycles) ~cols gs =
  if gs <> [] then begin
    pf b "## %s\n\n%s" title note;
    List.iter
      (fun g ->
         let r0 = List.hd g in
         let ms = distinct (fun r -> r.R.machine) (cols g) in
         pf b "### %s, %d-way\n\n" (run_label r0) r0.R.width;
         table b
           (row_name
            :: List.map (fun m -> config (List.find (fun r -> r.R.machine = m) g)) ms)
           (List.map
              (fun v ->
                 show v
                 :: List.map
                   (fun m ->
                      let column = List.filter (fun r -> r.R.machine = m) g in
                      match find (fun r -> value r = v) column with
                      | Some r -> cell column r
                      | None -> "—")
                   ms)
              (List.sort_uniq compare (List.map value g))))
      gs
  end

(* Section VI-B: a STRAIGHT run at several maximum distances, against the
   largest. *)
let max_distance b rs =
  let cell column r =
    let top =
      List.fold_left (fun t x -> if x.R.max_dist > t.R.max_dist then x else t) r column
    in
    Printf.sprintf "%d (%d insts, %+.2f%% vs %d)" r.R.cycles r.R.committed
      (100.0 *. (ratio r.R.cycles top.R.cycles -. 1.0)) top.R.max_dist
  in
  cycle_grids b ~title:"Section VI-B: sensitivity to the maximum distance"
    ~note:
      "Cycles (retired instructions, change against the largest maximum\n\
       distance).  The paper reports about +1% for 1023 -> 31 on CoreMark\n\
       RE+ 4-way.\n\n"
    ~row_name:"max distance" ~value:(fun r -> r.R.max_dist) ~show:string_of_int ~cell
    ~cols:(List.filter (fun r -> r.R.max_dist <> Params.straight_max_dist))
    (List.filter
       (fun g -> List.length (distinct (fun r -> r.R.max_dist) g) > 1)
       (groups (fun r -> (run_key r, r.R.width))
          (List.filter
             (fun r -> stock r && r.R.opt = "O2" && gshare_real r && straight r)
             rs)))

let opt_levels b rs =
  cycle_grids b ~title:"Ablation: IR optimization level (cycles)" ~row_name:"level"
    ~value:(fun r -> r.R.opt) ~show:Fun.id
    ~cols:(List.filter (fun r -> r.R.opt <> "O2"))
    (List.filter
       (fun g -> List.length (distinct (fun r -> r.R.opt) g) > 1)
       (groups (fun r -> (run_key r, r.R.width))
          (List.filter
             (fun r ->
                stock r && r.R.max_dist = Params.straight_max_dist && gshare_real r)
             rs)))

let rob_sweep b rs =
  cycle_grids b ~title:"Window scalability: ROB sweep (cycles)" ~row_name:"ROB"
    ~value:(fun r -> r.R.rob) ~show:string_of_int ~cols:Fun.id
    (groups (fun r -> (run_key r, r.R.width))
       (List.filter (fun r -> rob_point r && paper_code r && gshare_real r) rs))

(* ---------- mix and power: exact runs of the stock models ---------- *)

let fig15 ~quick b rs =
  pf b "## Fig. 15: retired instruction mix, normalized to the SS total\n\n";
  pf b "The mix depends on the code alone: each target's first width stands for all.\n\n";
  List.iter
    (fun g ->
       let per_machine =
         List.map
           (fun m -> List.find (fun r -> r.R.machine = m) g)
           (distinct (fun r -> r.R.machine) g)
       in
       match find (is Grid.Ss) per_machine with
       | None -> ()
       | Some ss ->
         let frac n = f3 (ratio n ss.R.committed) in
         let row name f =
           (name :: List.map f per_machine)
           @ [ paper ~quick ss "mix %s %s" ss.R.workload name ]
         in
         let count cat r = Option.value ~default:0 (List.assoc_opt cat r.R.mix) in
         pf b "### %s\n\n" (run_label ss);
         table b (("category" :: List.map config per_machine) @ [ "paper" ])
           (List.map
              (fun cat -> row cat (fun r -> frac (count cat r)))
              [ "Jump+Branch"; "ALU"; "LD"; "ST"; "RMOV"; "NOP" ]
            @ [ row "TOTAL" (fun r -> frac r.R.committed);
                row "retired" (fun r -> string_of_int r.R.committed) ]);
         match
           find (is Grid.Straight_raw) per_machine, find (is Grid.Straight_re) per_machine
         with
         | Some raw, Some re ->
           pf b "RE+ retires %.1f%% fewer instructions than RAW.\n\n"
             (100.0 *. (1.0 -. ratio re.R.committed raw.R.committed))
         | _ -> ())
    (groups run_key (List.filter plain rs))

(* Fig. 17 at the narrowest width (the paper's is 2-way): SS against the
   RE+ code. *)
let fig17 ~quick b rs =
  let rs = List.filter plain rs in
  let width = List.fold_left (fun w r -> min w r.R.width) max_int rs in
  let rows g =
    match find (is Grid.Ss) g, find (is Grid.Straight_re) g with
    | Some ss, Some st ->
      let power (r : R.record) = Power.analyze ~cycles:r.R.cycles r.R.activity in
      let rep = power ss in
      let row name freq cells =
        (run_label ss :: name :: freq :: cells)
        @ [ paper ~quick ss "power %d %s %s" width name freq ]
      in
      row "SS rename / other" "1.0x"
        [ Printf.sprintf "%.1f%%" (100.0 *. rep.Power.rename /. rep.Power.other); "" ]
      :: List.map
        (fun (x : Power.figure17_row) ->
           row x.Power.module_name (Printf.sprintf "%.1fx" x.Power.freq)
             [ f3 x.Power.ss; f3 x.Power.straight ])
        (Power.figure17 ~ss:rep ~straight:(power st))
    | _ -> []
  in
  match
    List.concat_map rows (groups run_key (List.filter (fun r -> r.R.width = width) rs))
  with
  | [] -> ()
  | rows ->
    pf b "## Fig. 17: relative power, %d-way, per module normalized to SS at 1.0x\n\n"
      width;
    pf b
      "STRAIGHT runs the RE+ code; its register file and other modules\n\
       exceed SS's with its higher IPC (Section VI-C).\n\n";
    table b [ "workload"; "module"; "freq"; "SS"; "STRAIGHT"; "paper" ] rows

let render ~quick (records : Runner.record list) : string =
  let rs = List.sort R.compare_order records in
  let b = Buffer.create 32768 in
  pf b "# FIGURES: the paper's evaluation, measured\n\n";
  pf b
    "Generated by `bin/sweep -figures` from %d simulated points%s.  `make\n\
     paper` regenerates this file from the paper grid at full sizes and\n\
     `make paper-check` fails on any difference, so do not edit it by\n\
     hand.  \"paper\" columns are read off the MICRO 2018 figures.\n\
     Absolute cycle counts are from this simulator; the reproduced\n\
     quantities are the relative shapes (EXPERIMENTS.md discusses each\n\
     table).  A run is labeled with its iteration count.\n\n"
    (List.length rs) (if quick then " at quick sizes" else "");
  table1 b;
  fig10 b;
  perf ~quick b rs ~predictor:"gshare"
    ~title:
      "Figs. 11 (4-way) and 12 (2-way): performance, normalized to SS at the same \
       width";
  penalty ~quick b rs;
  perf ~quick b rs ~predictor:"tage"
    ~title:
      "Fig. 14: with an 8-component TAGE predictor, normalized to SS+TAGE at the \
       same width";
  fig15 ~quick b rs;
  fig16 ~quick b rs;
  max_distance b rs;
  fig17 ~quick b rs;
  opt_levels b rs;
  rob_sweep b rs;
  Buffer.contents b
