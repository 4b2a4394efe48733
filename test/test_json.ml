(* The one JSON codec (lib/json): both printer layouts read back to the
   tree they printed, for random trees with arbitrary-byte strings, the
   full int range and finite floats; malformed text and over-deep
   nesting raise [Parse_error]; the field decoders name the field and
   the type they wanted; and the lint/TV report's layout change keeps
   its content. *)

module Stats = Ooo_common.Stats

(* ---------- round trip ---------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ ("schema", Json.Str "straight-bench/1");
        ("quick", Json.Bool true);
        ("reps", Json.Int 3);
        ("ipc", Json.Float 1.4176);
        ("label", Json.Str "esc \"quotes\" and\nnewlines");
        ("nothing", Json.Null);
        ("entries",
         Json.List
           [ Json.Obj [ ("khz_median", Json.Float 612.5) ];
             Json.List []; Json.Obj [] ]) ]
  in
  let round ~indent =
    Alcotest.(check bool)
      (Printf.sprintf "round-trip indent=%b" indent)
      true
      (Json.of_string (Json.to_string ~indent j) = j)
  in
  round ~indent:true;
  round ~indent:false;
  (* accessors used by the gate *)
  let parsed = Json.of_string (Json.to_string j) in
  Alcotest.(check (option int)) "get_int" (Some 3)
    (Json.get_int (Json.member "reps" parsed));
  Alcotest.(check (option (float 1e-9))) "get_float coerces int" (Some 3.0)
    (Json.get_float (Json.member "reps" parsed));
  Alcotest.(check (option string)) "get_string" (Some "straight-bench/1")
    (Json.get_string (Json.member "schema" parsed));
  (match Json.get_list (Json.member "entries" parsed) with
   | Some (first :: _) ->
     Alcotest.(check (option (float 1e-9))) "nested float" (Some 612.5)
       (Json.get_float (Json.member "khz_median" first))
   | _ -> Alcotest.fail "entries list lost in round-trip");
  (* cpi_stack emission is stable and parseable *)
  let cpi =
    { Stats.base = 10; frontend = 2; branch_squash = 3; memory = 4;
      structural = 0 }
  in
  Alcotest.(check bool) "cpi_to_json round-trips" true
    (Json.of_string (Json.to_string (Stats.cpi_to_json cpi))
     = Stats.cpi_to_json cpi)

let test_json_errors () =
  let rejects label s =
    Alcotest.(check bool) label true
      (match Json.of_string s with
       | _ -> false
       | exception Json.Parse_error _ -> true)
  in
  rejects "trailing garbage" "{} x";
  rejects "unterminated string" "\"abc";
  rejects "bare word" "nonsense";
  rejects "unclosed object" "{\"a\": 1";
  rejects "bad number" "1.2.3";
  Alcotest.(check bool) "numbers: int vs float" true
    (Json.of_string "42" = Json.Int 42
     && Json.of_string "42.5" = Json.Float 42.5)

(* An integral double in [1e15, 1e17) has neither a '.' nor an exponent
   under %.17g, yet must read back as a [Float]. *)
let test_integral_float () =
  List.iter
    (fun f ->
       let text = Json.to_string ~indent:false (Json.Float f) in
       Alcotest.(check bool) (text ^ " reads back as a Float") true
         (Json.of_string text = Json.Float f))
    [ 1234567890123456.; -1e15; 99999999999999984.; 1e17; 0.; -0.; 1e300 ]

(* ---------- random trees ---------- *)

let gen_tree : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* keys and strings of arbitrary bytes: control characters, '"' and
     '\\' included *)
  let bytes = string_size ~gen:char (int_bound 8) in
  let ints = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let floats =
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.5) float;
        (* integral doubles up to ~1.4e17, most of them past 1e15 *)
        map Float.of_int (int_range (-(1 lsl 57)) (1 lsl 57));
        float_range (-1e6) 1e6 ]
  in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) ints;
        map (fun f -> Json.Float f) floats;
        map (fun s -> Json.Str s) bytes ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      let sub = tree (depth - 1) in
      frequency
        [ (2, leaf);
          (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) sub));
          (1,
           map (fun kvs -> Json.Obj kvs)
             (list_size (int_bound 4) (pair bytes sub))) ]
  in
  tree 4

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"both layouts read back the tree"
    (QCheck.make ~print:(Json.to_string ~indent:false) gen_tree)
    (fun t ->
       Json.of_string (Json.to_string ~indent:true t) = t
       && Json.of_string (Json.to_string ~indent:false t) = t)

(* ---------- nesting bound ---------- *)

let test_depth () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string (nested 512) with
   | _ -> ()
   | exception Json.Parse_error m -> Alcotest.failf "512 levels: %s" m);
  Alcotest.check_raises "513 levels"
    (Json.Parse_error "nesting deeper than 512 at offset 512") (fun () ->
        ignore (Json.of_string (nested 513)));
  let objects = String.concat "" (List.init 513 (fun _ -> "{\"a\":")) in
  Alcotest.(check bool) "513 objects" true
    (match Json.of_string objects with
     | _ -> false
     | exception Json.Parse_error _ -> true)

(* ---------- field decoders ---------- *)

let test_decoders () =
  let j =
    Json.of_string
      {|{"n": 3, "x": 2.5, "s": "str", "b": true, "z": null, "o": {}}|}
  in
  Alcotest.(check int) "int" 3 (Json.int "n" j);
  Alcotest.(check (float 0.)) "float" 2.5 (Json.float "x" j);
  Alcotest.(check (float 0.)) "float accepts an int" 3. (Json.float "n" j);
  Alcotest.(check string) "string" "str" (Json.string "s" j);
  Alcotest.(check bool) "bool" true (Json.bool "b" j);
  Alcotest.(check bool) "field" true (Json.field "o" j = Json.Obj []);
  let raises label msg f =
    Alcotest.check_raises label (Json.Parse_error msg) (fun () ->
        ignore (f ()))
  in
  raises "missing field" "missing field \"w\"" (fun () -> Json.int "w" j);
  raises "field of a non-object" "missing field \"n\"" (fun () ->
      Json.int "n" (Json.List []));
  raises "string as int" "field \"s\" must be an integer" (fun () ->
      Json.int "s" j);
  raises "float as int" "field \"x\" must be an integer" (fun () ->
      Json.int "x" j);
  raises "bool as number" "field \"b\" must be a number" (fun () ->
      Json.float "b" j);
  raises "int as string" "field \"n\" must be a string" (fun () ->
      Json.string "n" j);
  raises "null as bool" "field \"z\" must be a boolean" (fun () ->
      Json.bool "z" j);
  Alcotest.(check (option int)) "opt: missing" None (Json.opt Json.int "w" j);
  Alcotest.(check (option int)) "opt: null" None (Json.opt Json.int "z" j);
  Alcotest.(check (option int)) "opt: present" (Some 3)
    (Json.opt Json.int "n" j);
  raises "opt: present, wrong type" "field \"s\" must be an integer"
    (fun () -> Json.opt Json.int "s" j);
  raises "fail" "bad 7" (fun () -> Json.fail "bad %d" 7)

(* ---------- lint/TV report layout ---------- *)

(* The straight-tv/1 report as the hand-written printer laid it out
   before the report became a [Json.t]: one line per finding.  The
   codec prints one key per line now; the tree must be the same. *)
let old_tv_report =
  {|{
  "schema": "straight-tv/1",
  "findings_total": 2,
  "errors": 1,
  "warnings": 0,
  "infos": 1,
  "images": [
    {
      "label": "img",
      "findings": [
        {"pc": 4096, "check": "tv-retval", "severity": "error", "message": "boom", "func": "main"},
        {"pc": 4100, "check": "tv-abstain", "severity": "info", "message": "gave up"}
      ]
    }
  ]
}
|}

let test_report_layout () =
  let fs =
    [ Lint_report.finding ~pc:0x1000 ~check:"tv-retval" ~func:"main" "boom";
      Lint_report.finding ~severity:Lint_report.Info ~pc:0x1004
        ~check:"tv-abstain" "gave up" ]
  in
  let text =
    Json.to_string
      (Lint_report.report_json ~schema:"straight-tv/1" [ ("img", fs) ])
  in
  Alcotest.(check bool) "same tree as the old layout" true
    (Json.of_string text = Json.of_string old_tv_report);
  Alcotest.(check bool) "layout did change" true (text <> old_tv_report)

let () =
  Alcotest.run "json"
    [ ("json",
       [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "parse errors" `Quick test_json_errors;
         Alcotest.test_case "integral floats stay floats" `Quick
           test_integral_float;
         QCheck_alcotest.to_alcotest prop_roundtrip;
         Alcotest.test_case "nesting bound" `Quick test_depth;
         Alcotest.test_case "field decoders" `Quick test_decoders;
         Alcotest.test_case "lint/TV report layout" `Quick
           test_report_layout ]) ]
