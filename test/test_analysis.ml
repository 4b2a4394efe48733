(* Property tests for the CFG analyses the compilers rely on: dominators
   (checked against the set-based definition on random CFGs), natural
   loops, liveness, and whole-image disassembly round-trips. *)

module Ir = Ssa_ir.Ir
module Analysis = Ssa_ir.Analysis

(* Build a function whose CFG has [n] blocks with the given edges (block 0
   is the entry).  Blocks carry no instructions; terminators encode the
   out-edges (0 = Ret, 1 = Br, 2 = Cond_br on a dummy constant). *)
let func_of_edges n (edges : (int * int) list) : Ir.func =
  let succs = Array.make n [] in
  List.iter
    (fun (a, b) ->
       if a < n && b < n && List.length succs.(a) < 2
          && not (List.mem b succs.(a))
       then succs.(a) <- succs.(a) @ [ b ])
    edges;
  let blocks =
    List.init n (fun i ->
        let term =
          match succs.(i) with
          | [] -> Ir.Ret (Ir.Const 0l)
          | [ t ] -> Ir.Br t
          | [ t1; t2 ] -> Ir.Cond_br (Ir.Const 1l, t1, t2)
          | _ -> assert false
        in
        { Ir.bid = i; insts = []; term })
  in
  { Ir.name = "cfg"; nparams = 0; nvalues = 0; blocks; frame_bytes = 0 }

(* Reference dominance: a dominates b iff every path from the entry to b
   passes through a — equivalently, b is unreachable when a is removed. *)
let reference_dominates (cfg : Analysis.cfg) a b =
  if a = b then true
  else begin
    let n = Array.length cfg.Analysis.blocks in
    let reach = Array.make n false in
    let rec dfs i =
      if (not reach.(i)) && i <> a then begin
        reach.(i) <- true;
        List.iter dfs cfg.Analysis.succs.(i)
      end
    in
    if a <> 0 then dfs 0;
    not reach.(b)
  end

let gen_cfg : (int * (int * int) list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 2 9 in
  let* extra = list_size (int_range 0 14) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  (* a spine keeps most blocks reachable *)
  let spine = List.init (n - 1) (fun i -> (i, i + 1)) in
  return (n, spine @ extra)

let prop_dominators =
  QCheck2.Test.make ~count:300 ~name:"idom matches set-based dominance"
    ~print:(fun (n, es) ->
        Printf.sprintf "n=%d edges=[%s]" n
          (String.concat ";"
             (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))
    gen_cfg
    (fun (n, edges) ->
       let f = func_of_edges n edges in
       let cfg = Analysis.build f in
       let idom = Analysis.idom cfg in
       let m = Array.length cfg.Analysis.blocks in
       let ok = ref true in
       for a = 0 to m - 1 do
         for b = 0 to m - 1 do
           if Analysis.dominates idom a b <> reference_dominates cfg a b then
             ok := false
         done
       done;
       !ok)

let prop_loops_have_back_edges =
  QCheck2.Test.make ~count:300 ~name:"every natural loop has its back edge"
    gen_cfg
    (fun (n, edges) ->
       let f = func_of_edges n edges in
       let cfg = Analysis.build f in
       let idom = Analysis.idom cfg in
       let loops = Analysis.natural_loops cfg idom in
       List.for_all
         (fun (l : Analysis.loop) ->
            (* the header is in the body, the body is dominated by the
               header, and some body block branches back to the header *)
            Analysis.IntSet.mem l.Analysis.header l.Analysis.body
            && Analysis.IntSet.for_all
              (fun b -> Analysis.dominates idom l.Analysis.header b)
              l.Analysis.body
            && Analysis.IntSet.exists
              (fun b -> List.mem l.Analysis.header cfg.Analysis.succs.(b))
              l.Analysis.body)
         loops)

let prop_entry_dominates_all =
  QCheck2.Test.make ~count:200 ~name:"entry dominates every reachable block"
    gen_cfg
    (fun (n, edges) ->
       let f = func_of_edges n edges in
       let cfg = Analysis.build f in
       let idom = Analysis.idom cfg in
       let ok = ref true in
       Array.iteri
         (fun i _ -> if not (Analysis.dominates idom 0 i) then ok := false)
         cfg.Analysis.blocks;
       !ok)

(* liveness sanity on a concrete diamond *)
let test_liveness_diamond () =
  let f = Minic.Lower.compile {|
int main() {
  int a = 40;
  int b = 2;
  int c;
  if (a > b) c = a + b; else c = a - b;
  putint(c);
}
|} in
  let main = List.find (fun g -> g.Ir.name = "main") f.Ir.funcs in
  Ssa_ir.Passes.optimize main;
  Ssa_ir.Passes.remove_unreachable main;
  let cfg = Analysis.build main in
  let lv = Analysis.liveness cfg in
  (* the entry block's live-in must be empty: everything is defined inside *)
  Alcotest.(check bool) "entry live-in empty" true
    (Analysis.IntSet.is_empty lv.Analysis.live_in.(0))

(* whole-image disassembly round trip for compiled programs: every word
   decodes, and re-encoding the decoded instruction gives the same word *)
let test_disassembly_roundtrip () =
  let src = (Workloads.coremark ~iterations:1 ()).Workloads.source in
  let prog = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize prog.Ir.funcs;
  let simage =
    (Straight_core.Compile.backend
       (Straight_core.Compile.Straight
          { Straight_cc.Codegen.max_dist = 31;
            level = Straight_cc.Codegen.Re_plus })
       prog)
      .Straight_core.Compile.image
  in
  Array.iter
    (fun w ->
       match Straight_isa.Encoding.decode w with
       | None -> Alcotest.failf "illegal straight word %08lx" w
       | Some insn ->
         Alcotest.(check int32) "straight re-encode" w
           (Straight_isa.Encoding.encode insn))
    simage.Assembler.Image.text;
  let prog2 = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize prog2.Ir.funcs;
  let rimage =
    (Straight_core.Compile.backend Straight_core.Compile.Riscv prog2)
      .Straight_core.Compile.image
  in
  Array.iter
    (fun w ->
       match Riscv_isa.Encoding.decode w with
       | None -> Alcotest.failf "illegal riscv word %08lx" w
       | Some insn ->
         Alcotest.(check int32) "riscv re-encode" w
           (Riscv_isa.Encoding.encode insn))
    rimage.Assembler.Image.text;
  (* the textual disassemblers must render every instruction *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let d = Assembler.Asm.disassemble_straight simage in
  Alcotest.(check bool) "straight disasm nonempty" true (String.length d > 0);
  Alcotest.(check bool) "no illegal in straight disasm" false
    (contains ~needle:"illegal" d)

(* assembly text round trip: print a compiled program, re-parse, assemble,
   and check the images match *)
let test_asm_text_roundtrip () =
  let src = (Workloads.fib ~n:10 ()).Workloads.source in
  let prog = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize prog.Ir.funcs;
  let items =
    Straight_cc.Codegen.compile
      ~config:{ Straight_cc.Codegen.max_dist = 31;
                level = Straight_cc.Codegen.Re_plus }
      prog
  in
  let direct = Assembler.Asm.Straight.assemble ~entry:"_start" items in
  let text = Assembler.Asm.Straight.program_to_string items in
  let reparsed = Assembler.Asm.Straight.assemble_source ~entry:"_start" text in
  Alcotest.(check bool) "text sections equal" true
    (direct.Assembler.Image.text = reparsed.Assembler.Image.text);
  Alcotest.(check bool) "data sections equal" true
    (direct.Assembler.Image.data = reparsed.Assembler.Image.data)

(* ---------- validate: structural rejections ---------- *)

let lowered src =
  let p = Minic.Lower.compile src in
  List.find (fun g -> g.Ir.name = "main") p.Ir.funcs

let expect_invalid name f =
  match Analysis.validate f with
  | () -> Alcotest.failf "%s: validate accepted a broken function" name
  | exception Diag.Error { code = Diag.Invalid_ir; _ } -> ()
  | exception e ->
    Alcotest.failf "%s: expected Invalid_ir, got %s" name (Printexc.to_string e)

let test_validate_structural () =
  (* a terminator that targets a nonexistent block must be Invalid_ir,
     not Not_found out of the CFG builder *)
  let f = func_of_edges 3 [ (0, 1); (1, 2) ] in
  (Ir.block f 2).Ir.term <- Ir.Br 99;
  expect_invalid "dangling target" f;
  (* duplicate block ids *)
  let f = func_of_edges 2 [ (0, 1) ] in
  f.Ir.blocks <- f.Ir.blocks @ [ { Ir.bid = 1; insts = []; term = Ir.Ret (Ir.Const 0l) } ];
  expect_invalid "duplicate bid" f;
  (* a phi in the entry block *)
  let f = func_of_edges 2 [ (0, 1) ] in
  f.Ir.nvalues <- 1;
  (Ir.entry_block f).Ir.insts <- [ (0, Ir.Phi [ (1, Ir.Const 0l) ]) ];
  expect_invalid "entry phi" f;
  (* a value id at or above nvalues *)
  let f = func_of_edges 2 [ (0, 1) ] in
  (Ir.block f 1).Ir.insts <- [ (7, Ir.Bin (Ir.Add, Ir.Const 1l, Ir.Const 2l)) ];
  expect_invalid "value id out of range" f;
  (* a phi arm naming a reachable block that is not a predecessor *)
  let f = func_of_edges 3 [ (0, 1); (0, 2); (1, 2) ] in
  f.Ir.nvalues <- 1;
  (Ir.block f 1).Ir.insts <- [ (0, Ir.Phi [ (0, Ir.Const 0l); (2, Ir.Const 1l) ]) ];
  expect_invalid "non-pred arm" f;
  (* a phi arm naming a block the function does not have, whatever its
     id (past the last block, negative) and its value (here undefined) *)
  let diamond arms =
    let f = func_of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
    f.Ir.nvalues <- 2;
    (Ir.block f 3).Ir.insts <- [ (1, Ir.Phi arms) ];
    f
  in
  let merge_arms = [ (1, Ir.Const 0l); (2, Ir.Const 1l) ] in
  expect_invalid "arm naming no block"
    (diamond (merge_arms @ [ (9999, Ir.Val 77) ]));
  expect_invalid "arm with a negative block id"
    (diamond (merge_arms @ [ (-1, Ir.Const 5l) ]));
  (* a block with a negative id *)
  let f = func_of_edges 2 [ (0, 1) ] in
  f.Ir.blocks <- f.Ir.blocks @ [ { Ir.bid = -3; insts = []; term = Ir.Ret (Ir.Const 0l) } ];
  expect_invalid "negative bid" f;
  (* an arm from a block that exists but is unreachable is the legal
     transient after a branch fold *)
  let f = diamond (merge_arms @ [ (4, Ir.Const 2l) ]) in
  f.Ir.blocks <- f.Ir.blocks @ [ { Ir.bid = 4; insts = []; term = Ir.Br 3 } ];
  Analysis.validate f;
  (* and a well-formed lowered function passes *)
  let f = lowered {|
int main() {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) s = s + i;
  return s;
}
|} in
  Analysis.validate f

(* ---------- the checked pass pipeline ---------- *)

let test_checked_pipeline_clean () =
  (* every workload survives the checked O0/O1/O2 pipelines *)
  List.iter
    (fun (w : Workloads.t) ->
       List.iter
         (fun opt ->
            let p = Minic.Lower.compile w.Workloads.source in
            List.iter (Ssa_ir.Passes.checked_at opt) p.Ir.funcs)
         [ Ssa_ir.Passes.O0; Ssa_ir.Passes.O1; Ssa_ir.Passes.O2 ])
    [ Workloads.fib ~n:10 (); Workloads.sort ~n:16 ();
      Workloads.coremark ~iterations:1 () ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_checked_blames_broken_pass () =
  (* inject a deliberately broken pass between two honest ones: the
     failure must name it, not its neighbours *)
  let sabotage =
    { Ssa_ir.Passes.pass_name = "sabotage";
      pass_run =
        (fun f ->
           (* redirect the entry terminator at a nonexistent block *)
           (Ir.entry_block f).Ir.term <- Ir.Br 9999) }
  in
  let pipeline =
    match Ssa_ir.Passes.pipeline Ssa_ir.Passes.O1 with
    | first :: rest -> (first :: sabotage :: rest)
    | [] -> assert false
  in
  let f = lowered "int main() { return 1 + 2; }" in
  match Ssa_ir.Passes.run_passes ~validate:true pipeline f with
  | () -> Alcotest.fail "broken pass went unnoticed"
  | exception Diag.Error { code = Diag.Invalid_ir; message = msg; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "blames sabotage: %S" msg)
      true (contains ~needle:"pass sabotage broke the IR" msg);
    Alcotest.(check bool)
      (Printf.sprintf "does not blame const-fold: %S" msg)
      false (contains ~needle:"const-fold broke" msg)

(* ---------- change detection ---------- *)

let loop_src = {|
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) {
    if (i > 4) s = s + i * 3; else s = s - 1;
  }
  return s;
}
|}

let counting name run =
  let calls = ref 0 in
  ( { Ssa_ir.Passes.pass_name = name;
      pass_run = (fun f -> incr calls; run f) },
    calls )

let test_change_detection_term_in_place () =
  (* the honest passes are quiet from the first round on (the function is
     already at their fixpoint); the last pass then only rewrites one
     existing block's terminator in place.  That is a change: it is
     validated and blamed by name. *)
  let f = lowered loop_src in
  Ssa_ir.Passes.optimize_at Ssa_ir.Passes.O2 f;
  let sabotage, calls =
    counting "retarget"
      (fun f ->
         let b = List.nth f.Ir.blocks (List.length f.Ir.blocks - 1) in
         b.Ir.term <- Ir.Br 9999)
  in
  let quiet = List.map (fun p -> counting p.Ssa_ir.Passes.pass_name p.Ssa_ir.Passes.pass_run)
      (Ssa_ir.Passes.pipeline Ssa_ir.Passes.O2) in
  match
    Ssa_ir.Passes.run_passes ~validate:true (List.map fst quiet @ [ sabotage ]) f
  with
  | () -> Alcotest.fail "an in-place terminator rewrite went unvalidated"
  | exception Diag.Error { code = Diag.Invalid_ir; message = msg; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "blames retarget: %S" msg)
      true (contains ~needle:"pass retarget broke the IR" msg);
    Alcotest.(check int) "retarget ran once" 1 !calls;
    List.iter
      (fun (p, n) ->
         Alcotest.(check int) (p.Ssa_ir.Passes.pass_name ^ " ran once") 1 !n)
      quiet

let test_change_detection_equal_rebuild () =
  (* a pass that rebuilds every instruction list and terminator as
     structurally equal values changes nothing: the fixpoint ends after
     one round *)
  let f = lowered loop_src in
  Ssa_ir.Passes.optimize_at Ssa_ir.Passes.O2 f;
  let before = Ir.func_to_string f in
  let rebuild, calls =
    counting "rebuild"
      (fun f ->
         f.Ir.blocks <- List.map (fun b -> b) f.Ir.blocks;
         List.iter
           (fun b ->
              b.Ir.insts <- List.map (fun (v, i) -> (v, i)) b.Ir.insts;
              b.Ir.term <-
                (match b.Ir.term with
                 | Ir.Ret o -> Ir.Ret o
                 | Ir.Br t -> Ir.Br t
                 | Ir.Cond_br (c, t1, t2) -> Ir.Cond_br (c, t1, t2)))
           f.Ir.blocks)
  in
  let dce, dce_calls = counting "dce" Ssa_ir.Passes.dce in
  Ssa_ir.Passes.run_passes ~validate:true [ rebuild; dce ] f;
  Alcotest.(check int) "rebuild ran once" 1 !calls;
  Alcotest.(check int) "dce ran once" 1 !dce_calls;
  Alcotest.(check string) "function unchanged" before (Ir.func_to_string f);
  (* one real change forces exactly one more round *)
  let once = ref false in
  let late, late_calls =
    counting "late"
      (fun f ->
         if not !once then begin
           once := true;
           f.Ir.frame_bytes <- f.Ir.frame_bytes + 4
         end)
  in
  Ssa_ir.Passes.run_passes ~validate:true [ rebuild; late ] f;
  Alcotest.(check int) "two rounds after one change" 2 !late_calls

(* ---------- O2 reaches its own fixpoint ---------- *)

let test_o2_fixpoint () =
  (* a second O2 run changes no function.  MiniC seeds 197, 238 and 246
     are programs where const-fold rewrites a dead folded definition
     without changing anything else in its round. *)
  let check_src label src =
    let p = Wasm.Front.compile_any src in
    List.iter (Ssa_ir.Passes.checked_at Ssa_ir.Passes.O2) p.Ir.funcs;
    List.iter
      (fun f ->
         let once = Ir.func_to_string f in
         Ssa_ir.Passes.optimize_at Ssa_ir.Passes.O2 f;
         Alcotest.(check string)
           (Printf.sprintf "%s %s: O2 is a fixpoint" label f.Ir.name)
           once (Ir.func_to_string f))
      p.Ir.funcs
  in
  List.iter
    (fun s ->
       check_src (Printf.sprintf "minic-%d" s) (Fuzz.Gen.render (Fuzz.Gen.generate s)))
    (List.init 120 Fun.id @ [ 197; 238; 246 ]);
  List.iter
    (fun s ->
       check_src (Printf.sprintf "wat-%d" s)
         (Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate s)))
    (List.init 60 Fun.id)

let test_checked_accepts_unoptimized () =
  (* ~validate:true also validates the input before any pass runs *)
  let f = lowered "int main() { putint(42); return 0; }" in
  Ssa_ir.Passes.run_passes ~validate:true [] f

let suite =
  [ QCheck_alcotest.to_alcotest prop_dominators;
    QCheck_alcotest.to_alcotest prop_loops_have_back_edges;
    QCheck_alcotest.to_alcotest prop_entry_dominates_all;
    ("liveness diamond", `Quick, test_liveness_diamond);
    ("disassembly roundtrip", `Quick, test_disassembly_roundtrip);
    ("asm text roundtrip", `Quick, test_asm_text_roundtrip);
    ("validate rejects structural breakage", `Quick, test_validate_structural);
    ("checked pipeline clean on workloads", `Quick, test_checked_pipeline_clean);
    ("checked pipeline blames culprit pass", `Quick, test_checked_blames_broken_pass);
    ("change detection: in-place terminator rewrite", `Quick,
     test_change_detection_term_in_place);
    ("change detection: structurally equal rebuild", `Quick,
     test_change_detection_equal_rebuild);
    ("O2 result is a fixpoint", `Quick, test_o2_fixpoint);
    ("checked pipeline validates input", `Quick, test_checked_accepts_unoptimized) ]

let () = Alcotest.run "analysis" [ ("analysis", suite) ]
