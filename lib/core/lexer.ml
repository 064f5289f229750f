(** Hand-written lexer for the Scallop surface language.

    Produces a flat token array consumed by the recursive-descent
    {!Parser}.  Line comments are [// ...]; block comments [/* ... */]. *)

type token =
  | IDENT of string
  | DOLLAR_IDENT of string  (** $func *)
  | AT_IDENT of string  (** @attribute *)
  | INT of int
  | FLOAT of float
  | STRING of string
  | CHARLIT of char
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | COLONCOLON  (** :: *)
  | COLONEQ  (** := *)
  | COLONDASH  (** :- *)
  | EQ  (** = *)
  | EQEQ
  | NEQ
  | LT
  | LEQ
  | GT
  | GEQ
  | SUBTYPE  (** <: *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | ANDAND
  | OROR
  | BANG
  | UNDERSCORE
  | EOF

type spanned = { tok : token; pos : Ast.pos }

exception Lex_error of string * Ast.pos

let keywords =
  [ "import"; "type"; "const"; "rel"; "query"; "and"; "or"; "not"; "implies";
    "if"; "then"; "else"; "as"; "where"; "true"; "false" ]

let is_keyword s = List.mem s keywords

let token_name = function
  | IDENT s -> Fmt.str "identifier %S" s
  | DOLLAR_IDENT s -> Fmt.str "$%s" s
  | AT_IDENT s -> Fmt.str "@%s" s
  | INT n -> Fmt.str "integer %d" n
  | FLOAT f -> Fmt.str "float %g" f
  | STRING s -> Fmt.str "string %S" s
  | CHARLIT c -> Fmt.str "char '%c'" c
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | COLONCOLON -> "::"
  | COLONEQ -> ":="
  | COLONDASH -> ":-"
  | EQ -> "="
  | EQEQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LEQ -> "<="
  | GT -> ">"
  | GEQ -> ">="
  | SUBTYPE -> "<:"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | UNDERSCORE -> "_"
  | EOF -> "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : spanned array =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let line = ref 1 in
  let col = ref 1 in
  let pos () : Ast.pos = { line = !line; col = !col } in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    end
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let emit tok p = toks := { tok; pos = p } :: !toks in
  while !i < n do
    let c = src.[!i] in
    let p = pos () in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = Some '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && peek 1 = Some '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then raise (Lex_error ("unterminated block comment", p))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let s = String.sub src start (!i - start) in
      if s = "_" then emit UNDERSCORE p else emit (IDENT s) p
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      (* A '.' followed by a digit continues a float literal. *)
      let is_float = ref false in
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        is_float := true;
        advance ();
        while !i < n && is_digit src.[!i] do
          advance ()
        done
      end;
      (* An exponent marker only belongs to the number when digits follow
         ("9e" is the number 9 followed by the identifier e). *)
      let exponent_follows =
        !i < n
        && (src.[!i] = 'e' || src.[!i] = 'E')
        &&
        let j = if !i + 1 < n && (src.[!i + 1] = '+' || src.[!i + 1] = '-') then !i + 2 else !i + 1 in
        j < n && is_digit src.[j]
      in
      if exponent_follows then begin
        is_float := true;
        advance ();
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then advance ();
        while !i < n && is_digit src.[!i] do
          advance ()
        done
      end;
      let s = String.sub src start (!i - start) in
      if !is_float then emit (FLOAT (float_of_string s)) p
      else
        match int_of_string_opt s with
        | Some n -> emit (INT n) p
        | None -> raise (Lex_error (Fmt.str "integer literal %s out of range" s, p))
    end
    else if c = '"' then begin
      advance ();
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        if c = '"' then begin
          advance ();
          closed := true
        end
        else if c = '\\' then begin
          advance ();
          (match peek 0 with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '"' -> Buffer.add_char buf '"'
          | Some c -> Buffer.add_char buf c
          | None -> raise (Lex_error ("unterminated string", p)));
          advance ()
        end
        else begin
          Buffer.add_char buf c;
          advance ()
        end
      done;
      if not !closed then raise (Lex_error ("unterminated string", p));
      emit (STRING (Buffer.contents buf)) p
    end
    else if c = '\'' then begin
      advance ();
      let ch =
        match peek 0 with
        | Some '\\' -> (
            advance ();
            match peek 0 with
            | Some 'n' -> '\n'
            | Some 't' -> '\t'
            | Some c -> c
            | None -> raise (Lex_error ("unterminated char literal", p)))
        | Some c -> c
        | None -> raise (Lex_error ("unterminated char literal", p))
      in
      advance ();
      if peek 0 <> Some '\'' then raise (Lex_error ("unterminated char literal", p));
      advance ();
      emit (CHARLIT ch) p
    end
    else if c = '$' then begin
      advance ();
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      if !i = start then raise (Lex_error ("expected identifier after '$'", p));
      emit (DOLLAR_IDENT (String.sub src start (!i - start))) p
    end
    else if c = '@' then begin
      advance ();
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      if !i = start then raise (Lex_error ("expected identifier after '@'", p));
      emit (AT_IDENT (String.sub src start (!i - start))) p
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let emit2 tok =
        advance ();
        advance ();
        emit tok p
      in
      let emit1 tok =
        advance ();
        emit tok p
      in
      match two with
      | "::" -> emit2 COLONCOLON
      | ":=" -> emit2 COLONEQ
      | ":-" -> emit2 COLONDASH
      | "==" -> emit2 EQEQ
      | "!=" -> emit2 NEQ
      | "<=" -> emit2 LEQ
      | ">=" -> emit2 GEQ
      | "<:" -> emit2 SUBTYPE
      | "&&" -> emit2 ANDAND
      | "||" -> emit2 OROR
      | _ -> (
          match c with
          | '(' -> emit1 LPAREN
          | ')' -> emit1 RPAREN
          | '{' -> emit1 LBRACE
          | '}' -> emit1 RBRACE
          | '[' -> emit1 LBRACKET
          | ']' -> emit1 RBRACKET
          | ',' -> emit1 COMMA
          | ';' -> emit1 SEMI
          | ':' -> emit1 COLON
          | '=' -> emit1 EQ
          | '<' -> emit1 LT
          | '>' -> emit1 GT
          | '+' -> emit1 PLUS
          | '-' -> emit1 MINUS
          | '*' -> emit1 STAR
          | '/' -> emit1 SLASH
          | '%' -> emit1 PERCENT
          | '!' -> emit1 BANG
          | _ -> raise (Lex_error (Fmt.str "unexpected character %C" c, p)))
    end
  done;
  emit EOF (pos ());
  Array.of_list (List.rev !toks)
