(* Recursive-descent parser for MiniC. *)

open Ast
open Lexer

let fail fmt = Diag.error Diag.Parse_error fmt

type state = { tokens : token array; mutable pos : int }

let peek st = st.tokens.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.tokens then st.tokens.(st.pos + 1) else EOF
let advance st = st.pos <- st.pos + 1

let token_name = function
  | INT_KW -> "int" | IF -> "if" | ELSE -> "else" | WHILE -> "while"
  | DO -> "do" | FOR -> "for" | RETURN -> "return" | BREAK -> "break"
  | CONTINUE -> "continue" | IDENT s -> "identifier " ^ s
  | NUM n -> Printf.sprintf "number %ld" n | CHARLIT c -> Printf.sprintf "%C" c
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]" | SEMI -> ";" | COMMA -> ","
  | ASSIGN -> "=" | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | PERCENT -> "%" | AMP -> "&" | PIPE -> "|" | CARET -> "^" | TILDE -> "~"
  | BANG -> "!" | SHL -> "<<" | SHR -> ">>" | EQ -> "==" | NE -> "!="
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | LAND -> "&&"
  | LOR -> "||" | PLUSEQ -> "+=" | MINUSEQ -> "-=" | PLUSPLUS -> "++"
  | MINUSMINUS -> "--" | QUESTION -> "?" | COLON -> ":"
  | EOF -> "end of input"

let expect st t =
  if peek st = t then advance st
  else fail "expected %s, found %s" (token_name t) (token_name (peek st))

let expect_ident st =
  match peek st with
  | IDENT s -> advance st; s
  | t -> fail "expected identifier, found %s" (token_name t)

(* ---------- expressions (precedence climbing) ---------- *)

let rec parse_expr st =
  let cond = parse_lor st in
  if peek st = QUESTION then begin
    advance st;
    let t = parse_expr st in
    expect st COLON;
    let f = parse_expr st in
    Ternary (cond, t, f)
  end
  else cond

and parse_lor st =
  let lhs = ref (parse_land st) in
  while peek st = LOR do
    advance st;
    lhs := Binop (Lor, !lhs, parse_land st)
  done;
  !lhs

and parse_land st =
  let lhs = ref (parse_bitor st) in
  while peek st = LAND do
    advance st;
    lhs := Binop (Land, !lhs, parse_bitor st)
  done;
  !lhs

and parse_bitor st =
  let lhs = ref (parse_bitxor st) in
  while peek st = PIPE do
    advance st;
    lhs := Binop (Or, !lhs, parse_bitxor st)
  done;
  !lhs

and parse_bitxor st =
  let lhs = ref (parse_bitand st) in
  while peek st = CARET do
    advance st;
    lhs := Binop (Xor, !lhs, parse_bitand st)
  done;
  !lhs

and parse_bitand st =
  let lhs = ref (parse_equality st) in
  while peek st = AMP do
    advance st;
    lhs := Binop (And, !lhs, parse_equality st)
  done;
  !lhs

and parse_equality st =
  let lhs = ref (parse_rel st) in
  let rec go () =
    match peek st with
    | EQ -> advance st; lhs := Binop (Eq, !lhs, parse_rel st); go ()
    | NE -> advance st; lhs := Binop (Ne, !lhs, parse_rel st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_rel st =
  let lhs = ref (parse_shift st) in
  let rec go () =
    match peek st with
    | LT -> advance st; lhs := Binop (Lt, !lhs, parse_shift st); go ()
    | LE -> advance st; lhs := Binop (Le, !lhs, parse_shift st); go ()
    | GT -> advance st; lhs := Binop (Gt, !lhs, parse_shift st); go ()
    | GE -> advance st; lhs := Binop (Ge, !lhs, parse_shift st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_shift st =
  let lhs = ref (parse_additive st) in
  let rec go () =
    match peek st with
    | SHL -> advance st; lhs := Binop (Shl, !lhs, parse_additive st); go ()
    | SHR -> advance st; lhs := Binop (Shr, !lhs, parse_additive st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_additive st =
  let lhs = ref (parse_mult st) in
  let rec go () =
    match peek st with
    | PLUS -> advance st; lhs := Binop (Add, !lhs, parse_mult st); go ()
    | MINUS -> advance st; lhs := Binop (Sub, !lhs, parse_mult st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_mult st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match peek st with
    | STAR -> advance st; lhs := Binop (Mul, !lhs, parse_unary st); go ()
    | SLASH -> advance st; lhs := Binop (Div, !lhs, parse_unary st); go ()
    | PERCENT -> advance st; lhs := Binop (Rem, !lhs, parse_unary st); go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  match peek st with
  | MINUS -> advance st; Unop (Neg, parse_unary st)
  | BANG -> advance st; Unop (Not, parse_unary st)
  | TILDE -> advance st; Unop (Bnot, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  while peek st = LBRACKET do
    advance st;
    let idx = parse_expr st in
    expect st RBRACKET;
    e := Index (!e, idx)
  done;
  !e

and parse_primary st =
  match peek st with
  | NUM n -> advance st; Num n
  | CHARLIT c -> advance st; Char c
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | IDENT name when peek2 st = LPAREN ->
    advance st; advance st;
    let args = ref [] in
    if peek st <> RPAREN then begin
      args := [ parse_expr st ];
      while peek st = COMMA do
        advance st;
        args := parse_expr st :: !args
      done
    end;
    expect st RPAREN;
    Call (name, List.rev !args)
  | IDENT name -> advance st; Var name
  | t -> fail "expected expression, found %s" (token_name t)

(* ---------- statements ---------- *)

let parse_lvalue_from_expr = function
  | Var v -> Lvar v
  | Index (base, idx) -> Lindex (base, idx)
  | _ -> fail "expression is not assignable"

let rec parse_stmt st : stmt =
  match peek st with
  | SEMI -> advance st; Block []   (* empty statement *)
  | LBRACE ->
    advance st;
    let stmts = ref [] in
    while peek st <> RBRACE do
      stmts := parse_stmt st :: !stmts
    done;
    advance st;
    Block (List.rev !stmts)
  | INT_KW ->
    advance st;
    (* consume an optional * — pointers and ints are not distinguished *)
    if peek st = STAR then advance st;
    let name = expect_ident st in
    let decl =
      if peek st = LBRACKET then begin
        advance st;
        let size =
          match peek st with
          | NUM n -> advance st; Int32.to_int n
          | t -> fail "expected array size, found %s" (token_name t)
        in
        expect st RBRACKET;
        Array size
      end
      else if peek st = ASSIGN then begin
        advance st;
        Scalar (Some (parse_expr st))
      end
      else Scalar None
    in
    expect st SEMI;
    Decl (name, decl)
  | IF ->
    advance st;
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    let then_s = parse_stmt st in
    if peek st = ELSE then begin
      advance st;
      If (cond, then_s, Some (parse_stmt st))
    end
    else If (cond, then_s, None)
  | WHILE ->
    advance st;
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    While (cond, parse_stmt st)
  | DO ->
    advance st;
    let body = parse_stmt st in
    expect st WHILE;
    expect st LPAREN;
    let cond = parse_expr st in
    expect st RPAREN;
    expect st SEMI;
    Do_while (body, cond)
  | FOR ->
    advance st;
    expect st LPAREN;
    let init = if peek st = SEMI then None else Some (parse_simple st) in
    expect st SEMI;
    let cond = if peek st = SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    let step = if peek st = RPAREN then None else Some (parse_simple st) in
    expect st RPAREN;
    For (init, cond, step, parse_stmt st)
  | RETURN ->
    advance st;
    let e = if peek st = SEMI then Num 0l else parse_expr st in
    expect st SEMI;
    Return e
  | BREAK -> advance st; expect st SEMI; Break
  | CONTINUE -> advance st; expect st SEMI; Continue
  | _ ->
    let s = parse_simple st in
    expect st SEMI;
    s

(* A "simple" statement (no trailing `;`): assignment, compound assignment,
   increment/decrement, declaration-free expression. *)
and parse_simple st : stmt =
  match peek st with
  | INT_KW ->
    advance st;
    if peek st = STAR then advance st;
    let name = expect_ident st in
    expect st ASSIGN;
    Decl (name, Scalar (Some (parse_expr st)))
  | _ ->
    let e = parse_expr st in
    (match peek st with
     | ASSIGN ->
       advance st;
       Assign (parse_lvalue_from_expr e, parse_expr st)
     | PLUSEQ ->
       advance st;
       let lv = parse_lvalue_from_expr e in
       Assign (lv, Binop (Add, e, parse_expr st))
     | MINUSEQ ->
       advance st;
       let lv = parse_lvalue_from_expr e in
       Assign (lv, Binop (Sub, e, parse_expr st))
     | PLUSPLUS ->
       advance st;
       Assign (parse_lvalue_from_expr e, Binop (Add, e, Num 1l))
     | MINUSMINUS ->
       advance st;
       Assign (parse_lvalue_from_expr e, Binop (Sub, e, Num 1l))
     | _ -> Expr_stmt e)

(* ---------- top level ---------- *)

let parse_global_init st =
  if peek st = LBRACE then begin
    advance st;
    let values = ref [] in
    let rec go () =
      match peek st with
      | NUM n -> advance st; values := n :: !values;
        if peek st = COMMA then begin advance st; go () end
      | MINUS ->
        advance st;
        (match peek st with
         | NUM n -> advance st; values := Int32.neg n :: !values;
           if peek st = COMMA then begin advance st; go () end
         | t -> fail "expected number, found %s" (token_name t))
      | CHARLIT c -> advance st; values := Int32.of_int (Char.code c) :: !values;
        if peek st = COMMA then begin advance st; go () end
      | RBRACE -> ()
      | t -> fail "expected initializer element, found %s" (token_name t)
    in
    go ();
    expect st RBRACE;
    List.rev !values
  end
  else
    match peek st with
    | NUM n -> advance st; [ n ]
    | MINUS ->
      advance st;
      (match peek st with
       | NUM n -> advance st; [ Int32.neg n ]
       | t -> fail "expected number, found %s" (token_name t))
    | t -> fail "expected initializer, found %s" (token_name t)

(* [parse src] parses a full translation unit. *)
let parse (src : string) : program =
  let st = { tokens = Array.of_list (Lexer.tokenize src); pos = 0 } in
  let globals = ref [] and funcs = ref [] in
  while peek st <> EOF do
    expect st INT_KW;
    if peek st = STAR then advance st;
    let name = expect_ident st in
    match peek st with
    | LPAREN ->
      advance st;
      let params = ref [] in
      if peek st <> RPAREN then begin
        let param () =
          expect st INT_KW;
          if peek st = STAR then advance st;
          let p = expect_ident st in
          params := p :: !params
        in
        param ();
        while peek st = COMMA do
          advance st;
          param ()
        done
      end;
      expect st RPAREN;
      if peek st = SEMI then advance st (* prototype: body defined later *)
      else
        (match parse_stmt st with
         | Block body ->
           funcs := { name; params = List.rev !params; body } :: !funcs
         | _ -> fail "function body must be a block")
    | LBRACKET ->
      advance st;
      let size =
        match peek st with
        | NUM n -> advance st; Int32.to_int n
        | t -> fail "expected array size, found %s" (token_name t)
      in
      expect st RBRACKET;
      let init =
        if peek st = ASSIGN then begin
          advance st;
          parse_global_init st
        end
        else []
      in
      expect st SEMI;
      globals := Garray (name, size, init) :: !globals
    | ASSIGN ->
      advance st;
      (match parse_global_init st with
       | [ v ] -> globals := Gvar (name, v) :: !globals
       | _ -> fail "scalar global %s needs a single initializer" name);
      expect st SEMI
    | SEMI ->
      advance st;
      globals := Gvar (name, 0l) :: !globals
    | t -> fail "unexpected %s after global %s" (token_name t) name
  done;
  { globals = List.rev !globals; funcs = List.rev !funcs }
