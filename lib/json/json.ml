(* The one JSON codec (see json.mli): the tree, a printer with an
   indented and a compact layout, a recursive-descent parser, and the
   field decoders every reader shares. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that parses back to the same double,
       so cached/serialized records compare exactly on reload *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* an integral double below 1e17 prints as bare digits, which would
       read back as an [Int] *)
    if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
      s ^ ".0"
    else s

let rec write b ~indent ~level t =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  match t with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> Buffer.add_char b '"'; Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
    Buffer.add_char b '[';
    nl ();
    List.iteri
      (fun i x ->
         if i > 0 then (Buffer.add_char b ','; nl ());
         pad (level + 1);
         write b ~indent ~level:(level + 1) x)
      xs;
    nl (); pad level; Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
    Buffer.add_char b '{';
    nl ();
    List.iteri
      (fun i (k, v) ->
         if i > 0 then (Buffer.add_char b ','; nl ());
         pad (level + 1);
         Buffer.add_char b '"'; Buffer.add_string b (escape k);
         Buffer.add_string b "\": ";
         write b ~indent ~level:(level + 1) v)
      kvs;
    nl (); pad level; Buffer.add_char b '}'

let to_string ?(indent = true) t =
  let b = Buffer.create 1024 in
  write b ~indent ~level:0 t;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* The parser recurses once per open array or object, so its cost on a
   hostile line (the daemon reads up to 1 MiB of them on its one event
   loop) grows faster than the line.  Nothing the system writes nests
   past 10 levels; 512 leaves room and still rejects a line of [[[...
   at once. *)
let max_depth = 512

(* Recursive-descent parser for the subset we emit (which is all of
   JSON except \u surrogate pairs, decoded as replacement bytes). *)
let of_string (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = fail "%s at offset %d" msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n
          && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do incr pos done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else err (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (pos := !pos + l; v)
    else err (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then err "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 >= n then err "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> err "bad \\u escape")
         | c -> err (Printf.sprintf "bad escape \\%c" c));
        incr pos;
        go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259: -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?, an [Int]
     when it has neither fraction nor exponent and fits *)
  let parse_number () =
    let start = !pos in
    let digit () = !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' in
    let digits () =
      if not (digit ()) then err "bad number";
      while digit () do incr pos done
    in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then (incr pos; if digit () then err "bad number")
    else digits ();
    let frac = peek () = Some '.' in
    if frac then (incr pos; digits ());
    let exp = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exp then begin
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    end;
    let tok = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt tok with
    | Some i -> Int i
    | None -> Float (float_of_string tok)
  in
  (* [depth]: arrays and objects enclosing the one opening at [pos] *)
  let enter depth =
    if depth >= max_depth then
      err (Printf.sprintf "nesting deeper than %d" max_depth);
    incr pos;
    skip_ws ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
      enter depth;
      if peek () = Some '}' then (incr pos; Obj [])
      else begin
        let kvs = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          kvs := (k, v) :: !kvs;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> err "expected , or }"
        in
        members ();
        Obj (List.rev !kvs)
      end
    | Some '[' ->
      enter depth;
      if peek () = Some ']' then (incr pos; List [])
      else begin
        let xs = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          xs := v :: !xs;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elements ()
          | Some ']' -> incr pos
          | _ -> err "expected , or ]"
        in
        elements ();
        List (List.rev !xs)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then err "trailing garbage";
  v

(* accessors *)
let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let get_float = function
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

let get_int = function Some (Int i) -> Some i | _ -> None
let get_string = function Some (Str s) -> Some s | _ -> None
let get_list = function Some (List l) -> Some l | _ -> None

(* ---------- field decoders ---------- *)

let field name j =
  match member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

(* [typed what get name j]: field [name] through [get], or a message
   naming the field and the type it must have *)
let typed what get name j =
  match get (Some (field name j)) with
  | Some v -> v
  | None -> fail "field %S must be %s" name what

let int = typed "an integer" get_int
let float = typed "a number" get_float
let string = typed "a string" get_string
let bool = typed "a boolean" (function Some (Bool b) -> Some b | _ -> None)

let opt dec name j =
  match member name j with
  | None | Some Null -> None
  | Some _ -> Some (dec name j)
