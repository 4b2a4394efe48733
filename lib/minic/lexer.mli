(** Hand-written lexer for MiniC. *)

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

val tokenize : string -> token list
(** [tokenize src] produces the token list, [//] and [/* */] comments
    stripped, decimal/hex numbers and ['c'] literals (with [\n \t \0 \\ \'
    \r] escapes) recognized.
    @raise Diag.Error with code [Lex_error] on stray characters or
    unterminated literals. *)
