(** Hand-written lexer for the Scallop surface language.

    Produces a token buffer for the recursive-descent {!Parser}: token
    kinds and start offsets in parallel arrays, plus the offset at which
    each line starts.  A token costs two array slots and, for punctuation
    and small integers, no allocation; a line and column are computed only
    where the parser asks for one ({!pos}).  Line comments are [// ...];
    block comments [/* ... */]. *)

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

(** The tokens of one source, the last one [EOF].  Every token takes at
    least one byte, so a source of [n] bytes has at most [n + 1] tokens and
    the token arrays are made that long once; only the first [count] slots
    are filled.  [line_starts] grows, and its first [lines] slots are
    filled. *)
type tokens = {
  kinds : token array;
  offsets : int array;  (** byte offset of each token's first character *)
  mutable count : int;
  mutable line_starts : int array;  (** byte offset of each line's first character *)
  mutable lines : int;
}

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

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

(** Line and column, both from 1, of byte [off]: every byte is one column,
    tabs and carriage returns included. *)
let pos_of_offset t off : Ast.pos =
  (* the last line starting at or before [off] *)
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if t.line_starts.(mid) <= off then search mid hi else search lo (mid - 1)
  in
  let l = search 0 (t.lines - 1) in
  { line = l + 1; col = off - t.line_starts.(l) + 1 }

(** The position of token [k]. *)
let pos t k = pos_of_offset t t.offsets.(k)

let push t kind off =
  t.kinds.(t.count) <- kind;
  t.offsets.(t.count) <- off;
  t.count <- t.count + 1

let new_line t off =
  if t.lines = Array.length t.line_starts then begin
    let bigger = Array.make (2 * t.lines) 0 in
    Array.blit t.line_starts 0 bigger 0 t.lines;
    t.line_starts <- bigger
  end;
  t.line_starts.(t.lines) <- off;
  t.lines <- t.lines + 1

(* Small integer literals share one token each, as small [Value] ints share
   one box. *)
let small_ints = Array.init 1024 (fun n -> INT n)

let tokenize (src : string) : tokens =
  let n = String.length src in
  let t =
    { kinds = Array.make (n + 1) EOF; offsets = Array.make (n + 1) 0; count = 0;
      line_starts = Array.make 16 0; lines = 1 }
  in
  let i = ref 0 in
  let error msg start = raise (Lex_error (msg, pos_of_offset t start)) in
  (* step over one byte that may be a newline: whitespace, or inside a
     comment, string or char literal *)
  let step () =
    if src.[!i] = '\n' then new_line t (!i + 1);
    incr i
  in
  let digits () =
    while !i < n && is_digit src.[!i] do
      incr i
    done
  in
  let emit start width tok =
    i := start + width;
    push t tok start
  in
  while !i < n do
    let start = !i in
    let c = src.[start] in
    let next = if start + 1 < n then src.[start + 1] else ' ' in
    match c with
    | ' ' | '\t' | '\r' | '\n' -> step ()
    | '/' when next = '/' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when next = '*' ->
        i := start + 2;
        while !i < n && not (src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/') do
          step ()
        done;
        if !i >= n then error "unterminated block comment" start;
        i := !i + 2
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        if !i = start + 1 && c = '_' then push t UNDERSCORE start
        else push t (IDENT (String.sub src start (!i - start))) start
    | '0' .. '9' ->
        (* the value is built from the digits; [max_int] is the largest literal *)
        let value = ref 0 and overflow = ref false in
        while !i < n && is_digit src.[!i] do
          let d = Char.code src.[!i] - Char.code '0' in
          if !value > (max_int - d) / 10 then overflow := true else value := (10 * !value) + d;
          incr i
        done;
        (* A '.' followed by a digit continues a float literal. *)
        let is_float = ref false in
        if !i + 1 < n && src.[!i] = '.' && is_digit src.[!i + 1] then begin
          is_float := true;
          incr i;
          digits ()
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
          i := if src.[!i + 1] = '+' || src.[!i + 1] = '-' then !i + 2 else !i + 1;
          digits ()
        end;
        if !is_float then push t (FLOAT (float_of_string (String.sub src start (!i - start)))) start
        else if !overflow then
          error (Fmt.str "integer literal %s out of range" (String.sub src start (!i - start))) start
        else push t (if !value < Array.length small_ints then small_ints.(!value) else INT !value) start
    | '"' ->
        incr i;
        let buf = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          let c = src.[!i] in
          if c = '"' then begin
            incr i;
            closed := true
          end
          else begin
            if c = '\\' then begin
              incr i;
              if !i >= n then error "unterminated string" start;
              Buffer.add_char buf (match src.[!i] with 'n' -> '\n' | 't' -> '\t' | c -> c)
            end
            else Buffer.add_char buf c;
            step ()
          end
        done;
        if not !closed then error "unterminated string" start;
        push t (STRING (Buffer.contents buf)) start
    | '\'' ->
        let escaped = next = '\\' && start + 1 < n in
        i := if escaped then start + 2 else start + 1;
        if !i >= n then error "unterminated char literal" start;
        let ch = match src.[!i] with 'n' when escaped -> '\n' | 't' when escaped -> '\t' | c -> c in
        step ();
        if !i >= n || src.[!i] <> '\'' then error "unterminated char literal" start;
        incr i;
        push t (CHARLIT ch) start
    | '$' | '@' ->
        incr i;
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        if !i = start + 1 then error (Fmt.str "expected identifier after '%c'" c) start;
        let name = String.sub src (start + 1) (!i - start - 1) in
        push t (if c = '$' then DOLLAR_IDENT name else AT_IDENT name) start
    | _ -> (
        match (c, next) with
        | ':', ':' -> emit start 2 COLONCOLON
        | ':', '=' -> emit start 2 COLONEQ
        | ':', '-' -> emit start 2 COLONDASH
        | '=', '=' -> emit start 2 EQEQ
        | '!', '=' -> emit start 2 NEQ
        | '<', '=' -> emit start 2 LEQ
        | '>', '=' -> emit start 2 GEQ
        | '<', ':' -> emit start 2 SUBTYPE
        | '&', '&' -> emit start 2 ANDAND
        | '|', '|' -> emit start 2 OROR
        | '(', _ -> emit start 1 LPAREN
        | ')', _ -> emit start 1 RPAREN
        | '{', _ -> emit start 1 LBRACE
        | '}', _ -> emit start 1 RBRACE
        | '[', _ -> emit start 1 LBRACKET
        | ']', _ -> emit start 1 RBRACKET
        | ',', _ -> emit start 1 COMMA
        | ';', _ -> emit start 1 SEMI
        | ':', _ -> emit start 1 COLON
        | '=', _ -> emit start 1 EQ
        | '<', _ -> emit start 1 LT
        | '>', _ -> emit start 1 GT
        | '+', _ -> emit start 1 PLUS
        | '-', _ -> emit start 1 MINUS
        | '*', _ -> emit start 1 STAR
        | '/', _ -> emit start 1 SLASH
        | '%', _ -> emit start 1 PERCENT
        | '!', _ -> emit start 1 BANG
        | _ -> error (Fmt.str "unexpected character %C" c) start)
  done;
  push t EOF n;
  t
