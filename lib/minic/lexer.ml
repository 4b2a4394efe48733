(* Hand-written lexer for MiniC. *)

type token =
  | INT_KW | IF | ELSE | WHILE | DO | FOR | RETURN | BREAK | CONTINUE
  | IDENT of string
  | NUM of int32
  | CHARLIT of char
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | SHL | SHR
  | EQ | NE | LT | LE | GT | GE
  | LAND | LOR
  | PLUSEQ | MINUSEQ
  | PLUSPLUS | MINUSMINUS
  | QUESTION | COLON
  | EOF

let fail fmt = Diag.error Diag.Lex_error fmt

let keyword = function
  | "int" -> Some INT_KW
  | "if" -> Some IF
  | "else" -> Some ELSE
  | "while" -> Some WHILE
  | "do" -> Some DO
  | "for" -> Some FOR
  | "return" -> Some RETURN
  | "break" -> Some BREAK
  | "continue" -> Some CONTINUE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* [tokenize src] produces the token list, `//` and C comments stripped. *)
let tokenize (src : string) : token list =
  let n = String.length src in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then fail "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
        else begin incr i; skip () end
      in
      skip ()
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      push (match keyword word with Some t -> t | None -> IDENT word)
    end
    else if is_digit c then begin
      let start = !i in
      if c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') then begin
        i := !i + 2;
        while
          !i < n
          && (is_digit src.[!i]
              || (Char.lowercase_ascii src.[!i] >= 'a'
                  && Char.lowercase_ascii src.[!i] <= 'f'))
        do incr i done
      end
      else while !i < n && is_digit src.[!i] do incr i done;
      let text = String.sub src start (!i - start) in
      (match Int64.of_string_opt text with
       | Some v when Int64.compare v 0x1_0000_0000L < 0 ->
         push (NUM (Int64.to_int32 v))
       | _ -> fail "bad number literal %S" text)
    end
    else if c = '\'' then begin
      (* char literal, with \n \t \0 \\ \' escapes *)
      if !i + 2 >= n then fail "unterminated char literal";
      let ch, len =
        if src.[!i + 1] = '\\' then
          ((match src.[!i + 2] with
            | 'n' -> '\n' | 't' -> '\t' | '0' -> '\000' | '\\' -> '\\'
            | '\'' -> '\'' | 'r' -> '\r'
            | c -> fail "unknown escape \\%c" c), 4)
        else (src.[!i + 1], 3)
      in
      if !i + len - 1 >= n || src.[!i + len - 1] <> '\'' then
        fail "unterminated char literal";
      push (CHARLIT ch);
      i := !i + len
    end
    else begin
      let two t = push t; i := !i + 2 in
      let one t = push t; incr i in
      match c, peek 1 with
      | '<', Some '<' -> two SHL
      | '>', Some '>' -> two SHR
      | '<', Some '=' -> two LE
      | '>', Some '=' -> two GE
      | '=', Some '=' -> two EQ
      | '!', Some '=' -> two NE
      | '&', Some '&' -> two LAND
      | '|', Some '|' -> two LOR
      | '+', Some '=' -> two PLUSEQ
      | '-', Some '=' -> two MINUSEQ
      | '+', Some '+' -> two PLUSPLUS
      | '-', Some '-' -> two MINUSMINUS
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | ';', _ -> one SEMI
      | ',', _ -> one COMMA
      | '=', _ -> one ASSIGN
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | '&', _ -> one AMP
      | '|', _ -> one PIPE
      | '^', _ -> one CARET
      | '~', _ -> one TILDE
      | '!', _ -> one BANG
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '?', _ -> one QUESTION
      | ':', _ -> one COLON
      | c, _ -> fail "unexpected character %C" c
    end
  done;
  List.rev (EOF :: !tokens)
