(** Recursive-descent parser for MiniC: C expression precedence,
    statements ([if]/[while]/[do]/[for]/[break]/[continue]/[return]),
    compound assignment and increment sugar, global scalars/arrays with
    initializers, function definitions and prototypes. *)

val parse : string -> Ast.program
(** [parse src] parses a full translation unit.
    @raise Diag.Error with code [Parse_error] (or [Lex_error], from
    {!Lexer.tokenize}) on malformed input. *)
