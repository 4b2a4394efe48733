(* Sampling-plan shape and its CLI/JSON syntax.  See spec.mli. *)

type t = { interval : int; warmup : int; every : int }

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* "100", "100k", "1M" — decimal suffixes, as instruction counts are
   quoted in the papers. *)
let count_of_string what s =
  let s = String.trim s in
  if s = "" then fail "%s: empty count" what;
  let scale, digits =
    match s.[String.length s - 1] with
    | 'k' | 'K' -> (1_000, String.sub s 0 (String.length s - 1))
    | 'm' | 'M' -> (1_000_000, String.sub s 0 (String.length s - 1))
    | _ -> (1, s)
  in
  match int_of_string_opt digits with
  | Some n when n >= 0 -> n * scale
  | _ -> fail "%s: bad count %S" what s

let parse s =
  let fields = String.split_on_char ',' s in
  let interval = ref None and warmup = ref None and every = ref None in
  List.iter
    (fun field ->
       let field = String.trim field in
       if field <> "" then
         match String.index_opt field '=' with
         | None -> fail "expected key=value, got %S" field
         | Some i ->
           let k = String.sub field 0 i in
           let v = String.sub field (i + 1) (String.length field - i - 1) in
           (match k with
            | "interval" -> interval := Some (count_of_string k v)
            | "warmup" -> warmup := Some (count_of_string k v)
            | "every" -> every := Some (count_of_string k v)
            | _ -> fail "unknown sampling key %S" k))
    fields;
  let interval =
    match !interval with
    | Some n -> n
    | None -> fail "missing interval= in %S" s
  in
  let warmup = Option.value !warmup ~default:0 in
  let every = Option.value !every ~default:1 in
  if interval <= 0 then fail "interval must be positive, got %d" interval;
  if warmup < 0 then fail "warmup must be nonnegative, got %d" warmup;
  if every < 1 then fail "every must be at least 1, got %d" every;
  { interval; warmup; every }

let to_string t =
  Printf.sprintf "interval=%d,warmup=%d,every=%d" t.interval t.warmup t.every

let to_json t =
  Json.Obj
    [ ("interval", Json.Int t.interval);
      ("warmup", Json.Int t.warmup);
      ("every", Json.Int t.every) ]

let of_json j =
  let t =
    try
      { interval = Json.int "interval" j; warmup = Json.int "warmup" j;
        every = Json.int "every" j }
    with Json.Parse_error m -> fail "sample spec: %s" m
  in
  if t.interval <= 0 || t.warmup < 0 || t.every < 1 then
    fail "sample spec: out-of-range fields in %s"
      (Json.to_string ~indent:false j);
  t
