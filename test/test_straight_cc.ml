(* White-box tests of the STRAIGHT back end: distance bounds on every
   generated program, frame/tail structure, RE+ mechanisms (localization,
   return-address spill, argument-in-position calls), memory tails and
   pressure spilling under tight maximum distances, and the IR
   optimization levels. *)

module Isa = Straight_isa.Isa
module Ir = Ssa_ir.Ir
module CC = Straight_cc.Codegen

let compile_items ?(opt = Ssa_ir.Passes.O2) ~level ~max_dist src =
  let p = Minic.Lower.compile src in
  List.iter (Ssa_ir.Passes.optimize_at opt) p.Ir.funcs;
  CC.compile ~config:{ CC.max_dist; level } p

let insns items =
  List.filter_map
    (function Assembler.Asm.Insn i -> Some i | _ -> None)
    items

let run_items items =
  let image = Assembler.Asm.Straight.assemble ~entry:"_start" items in
  (Iss.Straight_iss.run image).Iss.Trace.output

(* every source distance of every generated instruction respects the
   configured bound, on real workloads and tight bounds *)
let test_distance_bounds_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun max_dist ->
            List.iter
              (fun level ->
                 let items =
                   compile_items ~level ~max_dist w.Workloads.source
                 in
                 List.iter
                   (fun insn ->
                      List.iter
                        (fun d ->
                           if d > max_dist then
                             Alcotest.failf
                               "%s maxdist=%d: %s uses distance %d"
                               w.Workloads.name max_dist
                               (Isa.to_string_sym
                                  (Isa.map_label (fun _ -> "L") insn))
                               d)
                        (Isa.sources insn))
                   (insns items))
              [ CC.Raw; CC.Re_plus ])
         [ 21; 31; 63 ])
    [ Workloads.coremark ~iterations:1 ();
      Workloads.dhrystone ~iterations:2 ();
      Workloads.quicksort ~n:24 () ]

(* RE+ spills the return address exactly once per function with merges:
   functions containing loops must not RMOV-relay the JAL value *)
let test_retaddr_spilled_in_loops () =
  let src = (Workloads.iota ~n:16 ()).Workloads.source in
  let items = compile_items ~level:CC.Re_plus ~max_dist:31 src in
  (* iota has a loop; its code must contain a prologue store and an
     epilogue load adjacent to the JR *)
  let text = Assembler.Asm.Straight.program_to_string items in
  Alcotest.(check bool) "has SPADD frame" true
    (String.length text > 0
     &&
     let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains "SPADD -" text && contains "JR" text)

(* localization: a global address used in two blocks is re-materialized in
   each rather than carried through frames *)
let test_localization () =
  let src = {|
int g[8];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i++) {
    g[i] = i;
    s += g[i];
  }
  putint(s);
}
|} in
  let items = compile_items ~level:CC.Re_plus ~max_dist:31 src in
  (* correctness (the differential suites cover this too) *)
  Alcotest.(check string) "output" "28\n" (run_items items);
  (* the loop body should re-materialize &g (LUI) instead of relaying it:
     at least two LUI of the data base must exist *)
  let luis =
    List.length
      (List.filter (function Isa.Lui _ -> true | _ -> false) (insns items))
  in
  Alcotest.(check bool) (Printf.sprintf "%d LUIs (localized)" luis) true
    (luis >= 2)

(* argument-in-position: a call whose argument is produced immediately
   before it needs no RMOV padding *)
let test_arg_in_position () =
  let src = {|
int f(int x) { return x + 1; }
int main() { putint(f(41)); }
|} in
  let items = compile_items ~level:CC.Re_plus ~max_dist:31 src in
  Alcotest.(check string) "output" "42\n" (run_items items);
  let re_rmovs =
    List.length
      (List.filter (function Isa.Rmov _ -> true | _ -> false) (insns items))
  in
  let raw_items = compile_items ~level:CC.Raw ~max_dist:31 src in
  let raw_rmovs =
    List.length
      (List.filter (function Isa.Rmov _ -> true | _ -> false) (insns raw_items))
  in
  Alcotest.(check bool)
    (Printf.sprintf "RE+ %d RMOVs <= RAW %d RMOVs" re_rmovs raw_rmovs)
    true (re_rmovs <= raw_rmovs)

(* memory tails: a merge with many live values compiles and runs at a
   maximum distance too small for a register tail *)
let test_memory_tail_pressure () =
  let src = {|
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
  int g = 7; int h = 8; int i = 9; int j = 10; int k = 11; int l = 12;
  int s = 0;
  for (int t = 0; t < 10; t++) {
    s += a + b + c + d + e + f + g + h + i + j + k + l;
    if (s > 300) s -= (a * b + c * d + e * f + g * h + i * j + k * l);
  }
  putint(s + a - b + c - d + e - f + g - h + i - j + k - l);
}
|} in
  let reference =
    let p = Minic.Lower.compile src in
    List.iter Ssa_ir.Passes.optimize p.Ir.funcs;
    fst (Ssa_ir.Interp.run p)
  in
  List.iter
    (fun max_dist ->
       let items = compile_items ~level:CC.Re_plus ~max_dist src in
       Alcotest.(check string)
         (Printf.sprintf "maxdist %d output" max_dist)
         reference (run_items items);
       let raw = compile_items ~level:CC.Raw ~max_dist src in
       Alcotest.(check string)
         (Printf.sprintf "maxdist %d raw output" max_dist)
         reference (run_items raw))
    [ 21; 25; 31 ]

(* SPADD placeholders must never leak into generated code *)
let test_no_placeholder_spadds () =
  List.iter
    (fun (w : Workloads.t) ->
       let items = compile_items ~level:CC.Re_plus ~max_dist:31 w.Workloads.source in
       List.iter
         (fun insn ->
            match insn with
            | Isa.Spadd i ->
              Alcotest.(check bool)
                (Printf.sprintf "spadd %d sane" i)
                true (abs i < 1_000_000)
            | _ -> ())
         (insns items))
    [ Workloads.coremark ~iterations:1 (); Workloads.fib ~n:8 () ]

(* optimization levels are semantically transparent and monotone in code
   quality for the baseline *)
let test_opt_levels () =
  let src = (Workloads.coremark ~iterations:1 ()).Workloads.source in
  let out_at opt =
    let p = Minic.Lower.compile src in
    List.iter (Ssa_ir.Passes.optimize_at opt) p.Ir.funcs;
    fst (Ssa_ir.Interp.run p)
  in
  let o0 = out_at Ssa_ir.Passes.O0 in
  Alcotest.(check string) "O1 = O0" o0 (out_at Ssa_ir.Passes.O1);
  Alcotest.(check string) "O2 = O0" o0 (out_at Ssa_ir.Passes.O2);
  (* compiled-output equivalence at O0 as well *)
  let items = compile_items ~opt:Ssa_ir.Passes.O0 ~level:CC.Re_plus ~max_dist:31 src in
  Alcotest.(check string) "straight at O0" o0 (run_items items)

(* ST short-form selection at the format boundaries.  The short form
   encodes a signed 6-bit *word* offset, so it requires BOTH the byte
   range [-128, 124] AND word alignment; three codegen sites used to
   test the range only, committing to an ST the encoder then rejected.
   MiniC always scales indices by 4, so the boundary/unaligned offsets
   only arise from hand-built IR. *)
let test_st_boundary_offsets () =
  let open Ir in
  (* distinct (base displacement, store offset) pairs; each resulting
     byte address inside the 80-word buffer must be unique *)
  let cases =
    [ (0, 0); (0, 124); (0, 128);            (* short max, first long *)
      (160, -128); (160, -132); (160, -4);   (* short min, first long *)
      (160, 120); (160, 124); (160, 128);
      (2, 2) ]                               (* unaligned offset, aligned sum *)
  in
  let next = ref 0 in
  let fresh () = let v = !next in next := v + 1; v in
  let insts = ref [] in
  let add i = let v = fresh () in insts := (v, i) :: !insts; v in
  let base0 = add (Global_addr "buf") in
  let bases = Hashtbl.create 4 in
  Hashtbl.replace bases 0 base0;
  let base_for disp =
    match Hashtbl.find_opt bases disp with
    | Some v -> v
    | None ->
      let v = add (Bin (Add, Val base0, Const (Int32.of_int disp))) in
      Hashtbl.replace bases disp v;
      v
  in
  let expected =
    List.map
      (fun (disp, off) ->
         let b = base_for disp in
         let addr = disp + off in
         let value = Int32.of_int (1000 + addr) in
         ignore (add (Store (Const value, Val b, off)));
         (addr, value))
      cases
  in
  let main =
    { name = "main"; nparams = 0; nvalues = !next;
      blocks = [ { bid = 0; insts = List.rev !insts; term = Ret (Const 0l) } ];
      frame_bytes = 0 }
  in
  let words = List.init 80 (fun _ -> 0l) in
  List.iter
    (fun (level, max_dist) ->
       let p =
         { funcs = [ main ]; data = [ { sym = "buf"; words; extra_bytes = 0 } ] }
       in
       let image =
         (Straight_core.Compile.backend
            (Straight_core.Compile.Straight { CC.max_dist; level })
            p)
           .Straight_core.Compile.image
       in
       (* the generated image must also satisfy the static verifier *)
       (match Straight_lint.Lint.lint ~max_dist image with
        | [] -> ()
        | f :: _ ->
          Alcotest.failf "lint: %s"
            (Format.asprintf "%a" Straight_lint.Lint.pp_finding f));
       let session = Iss.Straight_iss.start image in
       Iss.Straight_iss.run_session session;
       ignore (Iss.Straight_iss.finish session);
       let mem = Iss.Straight_iss.session_memory session in
       let buf_addr =
         match Assembler.Image.find_symbol image "buf" with
         | Some a -> a
         | None -> Alcotest.fail "no buf symbol"
       in
       List.iter
         (fun (addr, value) ->
            Alcotest.(check int32)
              (Printf.sprintf "%s maxdist=%d buf+%d"
                 (match level with CC.Raw -> "raw" | CC.Re_plus -> "re+")
                 max_dist addr)
              value
              (Iss.Memory.read mem (buf_addr + addr)))
         expected)
    [ (CC.Re_plus, 1023); (CC.Raw, 1023); (CC.Re_plus, 31); (CC.Raw, 31) ]

(* the static RMOV share shrinks monotonically RAW -> RE+ on all workloads *)
let test_rmov_monotone () =
  List.iter
    (fun (w : Workloads.t) ->
       let stats level =
         CC.stats_of_items (compile_items ~level ~max_dist:31 w.Workloads.source)
       in
       let raw = stats CC.Raw in
       let re = stats CC.Re_plus in
       Alcotest.(check bool)
         (Printf.sprintf "%s: RE+ rmov %d <= RAW rmov %d" w.Workloads.name
            re.CC.rmov raw.CC.rmov)
         true
         (re.CC.rmov <= raw.CC.rmov))
    [ Workloads.coremark ~iterations:1 ();
      Workloads.dhrystone ~iterations:2 ();
      Workloads.sort ~n:16 ();
      Workloads.quicksort ~n:24 () ]

let suite =
  [ ("distance bounds on workloads", `Slow, test_distance_bounds_workloads);
    ("retaddr spilled in loops", `Quick, test_retaddr_spilled_in_loops);
    ("localization", `Quick, test_localization);
    ("argument in position", `Quick, test_arg_in_position);
    ("memory-tail pressure", `Quick, test_memory_tail_pressure);
    ("no placeholder spadds", `Quick, test_no_placeholder_spadds);
    ("optimization levels", `Quick, test_opt_levels);
    ("st boundary offsets", `Quick, test_st_boundary_offsets);
    ("rmov monotone RAW->RE+", `Quick, test_rmov_monotone) ]

let () = Alcotest.run "straight_cc" [ ("straight_cc", suite) ]
