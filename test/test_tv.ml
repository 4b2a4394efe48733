(* lib/tv — the translation validator.

   Three layers of assurance:
   - QCheck properties pin the term normalizer's contract: it is
     value-preserving under every environment and idempotent.  These are
     the soundness keystones — a normalizer that conflated distinct
     values would let the validator "prove" wrong code correct.
   - Acceptance: every committed workload validates with zero Error
     findings on both back-ends across middle-end levels (abstentions
     would show up as Info findings and are asserted away too).
   - Rejection: pinned mutation-harness seeds must each be caught with
     an Error finding naming the mutated function — the regression net
     against the validator silently going blind.
   - Deep distances: a function that reads far deeper than compiled
     workloads do validates at max distance 1023, and a corrupted deep
     read is still rejected, pinning that the validator's ring bound
     comes from the code under validation. *)

module T = Tv.Term
module V = Tv.Validate
module Ir = Ssa_ir.Ir

(* ---------- term generation ---------- *)

let binops =
  [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Divu; Ir.Rem; Ir.Remu; Ir.And;
    Ir.Or; Ir.Xor; Ir.Shl; Ir.Lshr; Ir.Ashr ]

let cmpops = [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Ltu; Ir.Geu ]

let gen_term : T.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ map (fun i -> T.Const (Int32.of_int i)) (int_range (-70000) 70000);
            oneofl [ T.Const 0l; T.Const 1l; T.Const (-1l);
                     T.Const Int32.min_int; T.Const Int32.max_int ];
            map (fun i -> T.Param i) (int_range 0 5);
            return T.Ra;
            map (fun r -> T.Reg0 r) (int_range 1 31);
            map (fun k -> T.Sp (4 * k)) (int_range (-32) 32);
            map (fun (b, v) -> T.Join (b, v)) (pair (int_range 0 9) (int_range 0 40));
            map (fun k -> T.Uninit (4 * k)) (int_range 0 16);
            map (fun (s, l) -> T.Dead (s, l)) (pair (int_range 0 9) (int_range 0 40));
            map (fun v -> T.Retcall v) (int_range 100000 100040) ]
      in
      if n <= 0 then leaf
      else
        frequency
          [ (2, leaf);
            (4,
             map3 (fun op a b -> T.Bin (op, a, b)) (oneofl binops)
               (self (n / 2)) (self (n / 2)));
            (2,
             map3 (fun op a b -> T.Cmp (op, a, b)) (oneofl cmpops)
               (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> T.Mulh (a, b)) (self (n / 2)) (self (n / 2)));
            (1,
             map2 (fun v a -> T.Load (100000 + v, a)) (int_range 0 9)
               (self (n / 2))) ])

(* A deterministic environment from an integer salt: every leaf and
   every (version, address) load gets a pseudo-random but reproducible
   32-bit value. *)
let env_of_salt (salt : int) : T.env =
  let h x = Int32.of_int (Hashtbl.hash (salt, x) * 2654435761) in
  { T.leaf = (fun t -> h (T.to_string ~depth:100 t));
    T.load = (fun v a -> h (v, a)) }

let prop_normalize_sound =
  QCheck2.Test.make ~count:2000 ~name:"normalize preserves value"
    QCheck2.Gen.(pair gen_term (int_range 0 7))
    (fun (t, salt) ->
       let env = env_of_salt salt in
       T.eval env t = T.eval env (T.normalize t))

let prop_normalize_idempotent =
  QCheck2.Test.make ~count:2000 ~name:"normalize is idempotent"
    gen_term
    (fun t ->
       let n = T.normalize t in
       T.normalize n = n)

(* ---------- normalizer unit pins ---------- *)

let check_norm name expect t () =
  Alcotest.(check string) name (T.to_string expect) (T.to_string (T.normalize t))

let p0 = T.Param 0
let p1 = T.Param 1

let norm_cases =
  [ (* the machine's xor/sltiu equality idioms meet the IR's Cmp *)
    ("eq(xor(a,b),0) = eq(a,b)",
     T.Cmp (Ir.Eq, T.Bin (Ir.Xor, p0, p1), T.Const 0l),
     T.normalize (T.Cmp (Ir.Eq, p0, p1)));
    ("ltu(x,1) = eq(x,0)",
     T.Cmp (Ir.Ltu, p0, T.Const 1l),
     T.normalize (T.Cmp (Ir.Eq, p0, T.Const 0l)));
    ("eq(cmp,1) collapses", T.Cmp (Ir.Eq, T.Cmp (Ir.Lt, p0, p1), T.Const 1l),
     T.normalize (T.Cmp (Ir.Lt, p0, p1)));
    ("ne(cmp,0) collapses", T.Cmp (Ir.Ne, T.Cmp (Ir.Lt, p0, p1), T.Const 0l),
     T.normalize (T.Cmp (Ir.Lt, p0, p1)));
    ("xori cmp 1 negates",
     T.Bin (Ir.Xor, T.Cmp (Ir.Lt, p0, p1), T.Const 1l),
     T.normalize (T.Cmp (Ir.Ge, p0, p1)));
    ("x == x is decided", T.Cmp (Ir.Eq, T.Bin (Ir.Add, p0, p1),
                                 T.Bin (Ir.Add, p0, p1)),
     T.Const 1l);
    ("x - x cancels", T.Bin (Ir.Sub, T.Bin (Ir.Add, p0, p1),
                             T.Bin (Ir.Add, p1, p0)),
     T.Const 0l);
    ("sp displacement folds",
     T.Bin (Ir.Add, T.Bin (Ir.Add, T.Sp 8, T.Const 4l), T.Const 12l),
     T.Sp 24);
    ("commutative args sort", T.Bin (Ir.Add, p1, p0),
     T.normalize (T.Bin (Ir.Add, p0, p1))) ]

let norm_tests =
  List.map
    (fun (name, t, expect) ->
       Alcotest.test_case name `Quick (check_norm name expect t))
    norm_cases

(* ---------- acceptance over committed workloads ---------- *)

let tv_config level =
  { Straight_cc.Codegen.max_dist = Straight_isa.Isa.max_dist; level }

let assert_validates label findings () =
  let errs = Lint_report.errors findings in
  Alcotest.(check (list string))
    (label ^ " validates with no findings") []
    (List.map Lint_report.finding_to_string (errs @ findings))

let accept_case (w : Workloads.t) opt oname =
  let prog () =
    Straight_core.Compile.frontend ~opt w.Workloads.source
  in
  [ Alcotest.test_case
      (Printf.sprintf "%s straight-re+ %s" w.Workloads.name oname) `Quick
      (fun () ->
         assert_validates
           (w.Workloads.name ^ ":straight-re+")
           (V.validate_straight
              ~config:(tv_config Straight_cc.Codegen.Re_plus) (prog ()))
           ());
    Alcotest.test_case
      (Printf.sprintf "%s straight-raw %s" w.Workloads.name oname) `Quick
      (fun () ->
         assert_validates
           (w.Workloads.name ^ ":straight-raw")
           (V.validate_straight
              ~config:(tv_config Straight_cc.Codegen.Raw) (prog ()))
           ());
    Alcotest.test_case
      (Printf.sprintf "%s riscv %s" w.Workloads.name oname) `Quick
      (fun () ->
         assert_validates
           (w.Workloads.name ^ ":riscv")
           (V.validate_riscv (prog ()))
           ()) ]

let accept_tests =
  List.concat
    [ accept_case (Workloads.fib ()) Ssa_ir.Passes.O0 "O0";
      accept_case (Workloads.fib ()) Ssa_ir.Passes.O2 "O2";
      accept_case (Workloads.sort ()) Ssa_ir.Passes.O2 "O2";
      accept_case (Workloads.quicksort ()) Ssa_ir.Passes.O1 "O1";
      accept_case (Workloads.pointer_chase ()) Ssa_ir.Passes.O2 "O2";
      accept_case (Workloads.dhrystone ()) Ssa_ir.Passes.O2 "O2";
      accept_case (Workloads.coremark ()) Ssa_ir.Passes.O2 "O2" ]

(* validate_straight must leave its input reusable (it clones before the
   back end's in-place mutation) *)
let test_clone_isolation () =
  let prog =
    Straight_core.Compile.frontend ~opt:Ssa_ir.Passes.O2
      (Workloads.fib ()).Workloads.source
  in
  let f1 = V.validate_straight ~config:(tv_config Straight_cc.Codegen.Re_plus) prog in
  let f2 = V.validate_straight ~config:(tv_config Straight_cc.Codegen.Re_plus) prog in
  Alcotest.(check int) "same result twice" (List.length f1) (List.length f2);
  (* and the program still compiles cleanly afterwards *)
  ignore
    (Straight_core.Compile.backend
       (Straight_core.Compile.Straight Straight_cc.Codegen.default_config)
       prog)

(* ---------- rejection: pinned mutation seeds ---------- *)

(* Each seed deterministically selects (program, mutation site); all of
   these were verified to produce behavior-changing breakage.  The
   validator must reject every one with an Error naming the function. *)
let pinned_mutation_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_mutation_seed seed () =
  let fresh () =
    Straight_core.Compile.frontend ~opt:Ssa_ir.Passes.O1
      (Fuzz.Gen.render (Fuzz.Gen.generate seed))
  in
  match
    V.mutation_trial ~config:(tv_config Straight_cc.Codegen.Re_plus)
      ~fresh ~seed ()
  with
  | None -> Alcotest.failf "seed %d offered no mutation site" seed
  | Some m ->
    if not m.V.m_caught then
      Alcotest.failf "seed %d: validator missed %s" seed m.V.m_desc;
    (* the catching finding names the mutated function *)
    Alcotest.(check bool)
      "an Error finding names the mutated function" true
      (List.exists
         (fun (f : Lint_report.finding) ->
            f.Lint_report.severity = Lint_report.Error
            && f.Lint_report.func = Some m.V.m_func)
         m.V.m_findings)

let mutation_tests =
  List.map
    (fun s ->
       Alcotest.test_case (Printf.sprintf "mutation seed %d caught" s)
         `Quick (test_mutation_seed s))
    pinned_mutation_seeds

(* ---------- deep distances ---------- *)

(* [deep] keeps 48 locals live across a loop, so its code reads deeper
   than the ~34 that compiled workloads reach (Fig. 16). *)
let deep_source =
  let n = 48 in
  String.concat ""
    ([ "int deep(int x) {\n" ]
     @ List.init n (fun i ->
         Printf.sprintf "  int a%d = x * %d + %d;\n" i (i + 3) i)
     @ [ "  int s = 0;\n";
         "  for (int i = 0; i < x; i++) s = s + i;\n";
         Printf.sprintf "  return s%s;\n}\n"
           (String.concat "" (List.init n (Printf.sprintf " + a%d")));
         "int main() {\n  putint(deep(5));\n  return 0;\n}\n" ])

let workload_reach = 34

let deep_validate prog items =
  V.validate_image ~max_dist:Straight_isa.Isa.max_dist ~target:V.Straight
    prog (Assembler.Asm.Straight.assemble ~entry:"_start" items)

let deepest_source (image : Assembler.Image.t) =
  Array.fold_left
    (fun acc w ->
       match Straight_isa.Encoding.decode w with
       | Some i -> List.fold_left max acc (Straight_isa.Isa.sources i)
       | None -> acc)
    0 image.Assembler.Image.text

(* The first ALU operand in [deep] that reads deeper than
   [workload_reach]: its item index and a rebuilder for the operand. *)
let first_deep_alu items =
  let inside = ref false and found = ref None in
  List.iteri
    (fun idx it ->
       match it with
       | Assembler.Asm.Label l ->
         if l = Straight_cc.Codegen.func_label "deep" then inside := true
         else if l <> "" && l.[0] <> '.' then inside := false
       | Assembler.Asm.Insn (Straight_isa.Isa.Alu (op, a, b))
         when !inside && !found = None ->
         let alu a b = Assembler.Asm.Insn (Straight_isa.Isa.Alu (op, a, b)) in
         if a > workload_reach then found := Some (idx, a, fun d -> alu d b)
         else if b > workload_reach then
           found := Some (idx, b, fun d -> alu a d)
       | _ -> ())
    items;
  match !found with
  | Some site -> site
  | None -> Alcotest.fail "deep has no ALU operand past the workload reach"

let test_deep level () =
  let prog =
    Straight_core.Compile.frontend ~opt:Ssa_ir.Passes.O2 deep_source
  in
  let items = Straight_cc.Codegen.compile ~config:(tv_config level) prog in
  let deepest =
    deepest_source (Assembler.Asm.Straight.assemble ~entry:"_start" items)
  in
  if deepest <= workload_reach then
    Alcotest.failf "deepest source distance %d does not pass %d" deepest
      workload_reach;
  assert_validates "deep" (deep_validate prog items) ();
  let idx, d, rebuild = first_deep_alu items in
  List.iter
    (fun d' ->
       let items' =
         List.mapi (fun i it -> if i = idx then rebuild d' else it) items
       in
       let rejected =
         List.exists
           (fun (f : Lint_report.finding) ->
              f.Lint_report.severity = Lint_report.Error
              && f.Lint_report.func = Some "deep")
           (deep_validate prog items')
       in
       if not rejected then
         Alcotest.failf "distance %d corrupted to %d was not rejected" d d')
    [ d + 1; 200 ]

let deep_tests =
  [ Alcotest.test_case "deep straight-re+ O2" `Quick
      (test_deep Straight_cc.Codegen.Re_plus);
    Alcotest.test_case "deep straight-raw O2" `Quick
      (test_deep Straight_cc.Codegen.Raw) ]

(* ---------- lint_report JSON shape ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_json () =
  let fs =
    [ Lint_report.finding ~pc:0x1000 ~check:"tv-retval" ~func:"main" "boom";
      Lint_report.finding ~severity:Lint_report.Info ~pc:0x1004
        ~check:"tv-abstain" "gave up" ]
  in
  let js =
    Json.to_string
      (Lint_report.report_json ~schema:"straight-tv/1" [ ("img", fs) ])
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("report contains " ^ needle) true
         (contains ~needle js))
    [ "\"schema\": \"straight-tv/1\""; "\"findings_total\": 2";
      "\"errors\": 1"; "\"infos\": 1"; "\"warnings\": 0";
      "\"func\": \"main\""; "\"images\""; "\"label\": \"img\"" ];
  (* without ?schema the original shape keys survive unchanged *)
  let js0 = Json.to_string (Lint_report.report_json [ ("img", fs) ]) in
  Alcotest.(check bool) "no schema key when not requested" false
    (contains ~needle:"\"schema\"" js0);
  Alcotest.(check bool) "images key present" true
    (contains ~needle:"\"images\"" js0)

let test_finding_func_render () =
  let f = Lint_report.finding ~pc:16 ~check:"c" ~func:"fn" "m" in
  Alcotest.(check bool) "rendering names the function" true
    (contains ~needle:"(fn)" (Lint_report.finding_to_string f));
  let bare = Lint_report.finding ~pc:16 ~check:"c" "m" in
  Alcotest.(check string) "no-func rendering unchanged" "0x10: [c] m"
    (Lint_report.finding_to_string bare)

let () =
  Alcotest.run "tv"
    [ ("normalizer-props",
       [ QCheck_alcotest.to_alcotest prop_normalize_sound;
         QCheck_alcotest.to_alcotest prop_normalize_idempotent ]);
      ("normalizer-pins", norm_tests);
      ("acceptance", accept_tests);
      ("clone-isolation",
       [ Alcotest.test_case "input program reusable" `Quick
           test_clone_isolation ]);
      ("mutation-rejection", mutation_tests);
      ("deep-distance", deep_tests);
      ("report-json",
       [ Alcotest.test_case "straight-tv/1 shape" `Quick test_report_json;
         Alcotest.test_case "finding func rendering" `Quick
           test_finding_func_render ]) ]
