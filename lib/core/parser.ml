(** Recursive-descent parser for the Scallop surface language (Fig. 20).

    The grammar is mostly LL(1); the two exceptions are handled with bounded
    lookahead / backtracking:
    - a parenthesized {e formula} vs. a parenthesized {e expression} at the
      start of a conjunct (we attempt the formula parse and fall back), and
    - reduce (aggregation) detection, which scans ahead for the
      [vars (:=|=) aggregator] shape before committing. *)

open Lexer

exception Parse_error of string * Ast.pos

type state = { toks : tokens; mutable idx : int }

let peek st = st.toks.kinds.(st.idx)
let peek_at st k = if st.idx + k < st.toks.count then st.toks.kinds.(st.idx + k) else EOF
let pos st = Lexer.pos st.toks st.idx

let next st =
  let t = peek st in
  if st.idx < st.toks.count - 1 then st.idx <- st.idx + 1;
  t

let error st msg = raise (Parse_error (msg, pos st))

let expect st tok =
  if peek st = tok then ignore (next st)
  else error st (Fmt.str "expected %s but found %s" (token_name tok) (token_name (peek st)))

let expect_ident st =
  match peek st with
  | IDENT s ->
      ignore (next st);
      s
  | t -> error st (Fmt.str "expected identifier but found %s" (token_name t))

(* ---- expressions ----------------------------------------------------------- *)

let aggregator_names =
  [ "count"; "sum"; "prod"; "min"; "max"; "exists"; "forall"; "argmin"; "argmax" ]

let sampler_names = [ "top"; "categorical"; "uniform" ]

let rec parse_expr st : Ast.expr =
  match peek st with
  | IDENT "if" ->
      ignore (next st);
      let c = parse_expr st in
      (match peek st with
      | IDENT "then" -> ignore (next st)
      | _ -> error st "expected 'then'");
      let a = parse_expr st in
      (match peek st with
      | IDENT "else" -> ignore (next st)
      | _ -> error st "expected 'else'");
      let b = parse_expr st in
      Ast.E_if (c, a, b)
  | _ -> parse_or_expr st

and parse_or_expr st =
  let lhs = parse_and_expr st in
  if peek st = OROR then begin
    ignore (next st);
    let rhs = parse_or_expr st in
    Ast.E_binop (Foreign.Lor, lhs, rhs)
  end
  else lhs

and parse_and_expr st =
  let lhs = parse_cmp_expr st in
  if peek st = ANDAND then begin
    ignore (next st);
    let rhs = parse_and_expr st in
    Ast.E_binop (Foreign.Land, lhs, rhs)
  end
  else lhs

and parse_cmp_expr st =
  let lhs = parse_add_expr st in
  let op =
    match peek st with
    | EQEQ -> Some Foreign.Eq
    | NEQ -> Some Foreign.Neq
    | LT -> Some Foreign.Lt
    | LEQ -> Some Foreign.Leq
    | GT -> Some Foreign.Gt
    | GEQ -> Some Foreign.Geq
    | _ -> None
  in
  match op with
  | Some op ->
      ignore (next st);
      let rhs = parse_add_expr st in
      Ast.E_binop (op, lhs, rhs)
  | None -> lhs

and parse_add_expr st =
  let rec go lhs =
    match peek st with
    | PLUS ->
        ignore (next st);
        go (Ast.E_binop (Foreign.Add, lhs, parse_mul_expr st))
    | MINUS ->
        ignore (next st);
        go (Ast.E_binop (Foreign.Sub, lhs, parse_mul_expr st))
    | _ -> lhs
  in
  go (parse_mul_expr st)

and parse_mul_expr st =
  let rec go lhs =
    match peek st with
    | STAR ->
        ignore (next st);
        go (Ast.E_binop (Foreign.Mul, lhs, parse_unary_expr st))
    | SLASH ->
        ignore (next st);
        go (Ast.E_binop (Foreign.Div, lhs, parse_unary_expr st))
    | PERCENT ->
        ignore (next st);
        go (Ast.E_binop (Foreign.Mod, lhs, parse_unary_expr st))
    | _ -> lhs
  in
  go (parse_unary_expr st)

and parse_unary_expr st =
  match peek st with
  | BANG ->
      ignore (next st);
      Ast.E_unop (Foreign.Not, parse_unary_expr st)
  | MINUS ->
      ignore (next st);
      Ast.E_unop (Foreign.Neg, parse_unary_expr st)
  | _ -> parse_postfix_expr st

and parse_postfix_expr st =
  let e = parse_primary_expr st in
  let rec go e =
    match peek st with
    | IDENT "as" ->
        ignore (next st);
        let ty = expect_ident st in
        go (Ast.E_cast (e, ty))
    | _ -> e
  in
  go e

and parse_primary_expr st =
  match peek st with
  | INT n ->
      ignore (next st);
      Ast.E_const (Ast.C_int n)
  | FLOAT f ->
      ignore (next st);
      Ast.E_const (Ast.C_float f)
  | STRING s ->
      ignore (next st);
      Ast.E_const (Ast.C_str s)
  | CHARLIT c ->
      ignore (next st);
      Ast.E_const (Ast.C_char c)
  | IDENT "true" ->
      ignore (next st);
      Ast.E_const (Ast.C_bool true)
  | IDENT "false" ->
      ignore (next st);
      Ast.E_const (Ast.C_bool false)
  | UNDERSCORE ->
      ignore (next st);
      Ast.E_wildcard
  | IDENT s when not (Lexer.is_keyword s) ->
      ignore (next st);
      Ast.E_var s
  | DOLLAR_IDENT f ->
      ignore (next st);
      expect st LPAREN;
      let args = parse_expr_list st in
      expect st RPAREN;
      Ast.E_call (f, args)
  | LPAREN ->
      ignore (next st);
      let e = parse_expr st in
      expect st RPAREN;
      e
  | t -> error st (Fmt.str "expected expression but found %s" (token_name t))

and parse_expr_list st =
  if peek st = RPAREN then []
  else begin
    let rec go acc =
      let e = parse_expr st in
      if peek st = COMMA then begin
        ignore (next st);
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []
  end

(* ---- formulas ---------------------------------------------------------------- *)

let parse_atom st : Ast.atom =
  let pred = expect_ident st in
  expect st LPAREN;
  let args = parse_expr_list st in
  expect st RPAREN;
  { Ast.pred; args }

(* Lookahead: does a reduce ([vars (:=|=) agg( ...] or [vars (:=|=) agg<...])
   start at the current position? *)
let looks_like_reduce st =
  let rec scan k expecting_ident =
    match peek_at st k with
    | IDENT s when expecting_ident && not (Lexer.is_keyword s) -> scan (k + 1) false
    | COMMA when not expecting_ident -> scan (k + 1) true
    | (COLONEQ | EQ) when not expecting_ident -> (
        match peek_at st (k + 1) with
        | IDENT op when List.mem op aggregator_names || List.mem op sampler_names -> (
            match peek_at st (k + 2) with LPAREN | LT -> true | _ -> false)
        | _ -> false)
    | _ -> false
  in
  scan 0 true

let rec parse_formula st : Ast.formula = parse_implies st

and parse_implies st =
  let lhs = parse_or_formula st in
  match peek st with
  | IDENT "implies" ->
      ignore (next st);
      let rhs = parse_implies st in
      Ast.F_implies (lhs, rhs)
  | _ -> lhs

and parse_or_formula st =
  let rec go lhs =
    match peek st with
    | IDENT "or" ->
        ignore (next st);
        go (Ast.F_or (lhs, parse_and_formula st))
    | _ -> lhs
  in
  go (parse_and_formula st)

and parse_and_formula st =
  let rec go lhs =
    match peek st with
    | IDENT "and" | COMMA ->
        ignore (next st);
        go (Ast.F_and (lhs, parse_unary_formula st))
    | _ -> lhs
  in
  go (parse_unary_formula st)

and parse_unary_formula st =
  match peek st with
  | IDENT "not" ->
      ignore (next st);
      Ast.F_not (parse_unary_formula st)
  | IDENT s when (not (Lexer.is_keyword s)) && peek_at st 1 = LPAREN && not (looks_like_reduce st)
    ->
      (* An identifier followed by '(' in formula position is an atom unless
         the whole thing scans as a reduce (e.g. [x = max(...)]). *)
      Ast.F_atom (parse_atom st)
  | IDENT s when (not (Lexer.is_keyword s)) && looks_like_reduce st -> parse_reduce st
  | LPAREN -> (
      (* Backtrack: parenthesized formula vs. parenthesized expression. *)
      let save = st.idx in
      match
        (try
           ignore (next st);
           let f = parse_formula st in
           expect st RPAREN;
           (* If an expression operator follows, this was really a grouped
              expression like [(a + b) > c]. *)
           (match peek st with
           | PLUS | MINUS | STAR | SLASH | PERCENT | EQEQ | NEQ | LT | LEQ | GT | GEQ
           | ANDAND | OROR ->
               None
           | IDENT "as" -> None
           | _ -> Some f)
         with Parse_error _ -> None)
      with
      | Some f -> f
      | None ->
          st.idx <- save;
          Ast.F_constraint (parse_expr st))
  | _ -> Ast.F_constraint (parse_expr st)

and parse_reduce st : Ast.formula =
  (* [v1, v2, ...] and, for bindings, the ':' after them *)
  let rec idents () =
    let v = expect_ident st in
    if peek st = COMMA then begin
      ignore (next st);
      v :: idents ()
    end
    else [ v ]
  in
  let binding () =
    let vs = idents () in
    expect st COLON;
    vs
  in
  let result_vars = idents () in
  (match peek st with
  | COLONEQ | EQ -> ignore (next st)
  | _ -> error st "expected ':=' or '=' in aggregation");
  let op_name = expect_ident st in
  let op =
    if List.mem op_name sampler_names then begin
      expect st LT;
      let k = match next st with INT k -> k | _ -> error st "expected integer sample count" in
      expect st GT;
      Ast.R_sampler (op_name, k)
    end
    else if op_name = "argmin" || op_name = "argmax" then begin
      expect st LT;
      let args = idents () in
      expect st GT;
      Ast.R_arg_extremum (op_name, args)
    end
    else if List.mem op_name aggregator_names then Ast.R_aggregate op_name
    else error st (Fmt.str "unknown aggregator %S" op_name)
  in
  expect st LPAREN;
  let binding_vars = binding () in
  let body = parse_formula st in
  let where =
    match peek st with
    | IDENT "where" ->
        ignore (next st);
        let gv = binding () in
        let f = parse_formula st in
        Some (gv, f)
    | _ -> None
  in
  expect st RPAREN;
  Ast.F_reduce { result_vars; op; binding_vars; body; where }

(* ---- items ---------------------------------------------------------------------- *)

let parse_tag st : float option =
  (* A numeric literal followed by '::' tags the fact/rule. *)
  match (peek st, peek_at st 1) with
  | FLOAT f, COLONCOLON ->
      ignore (next st);
      ignore (next st);
      Some f
  | INT n, COLONCOLON ->
      ignore (next st);
      ignore (next st);
      Some (float_of_int n)
  | _ -> None

let parse_fact_set_elements st : Ast.fact_tuple list list =
  (* Elements separated by ',' (independent) or ';' (mutually exclusive);
     maximal ';'-joined runs form segments. *)
  let parse_element () : Ast.fact_tuple =
    let ftag = parse_tag st in
    if peek st = LPAREN then begin
      ignore (next st);
      let args = parse_expr_list st in
      expect st RPAREN;
      { Ast.ftag; fargs = args }
    end
    else
      let e = parse_expr st in
      { Ast.ftag; fargs = [ e ] }
  in
  let segments = ref [] in
  let current = ref [] in
  let flush () =
    if !current <> [] then begin
      segments := List.rev !current :: !segments;
      current := []
    end
  in
  let rec go () =
    if peek st = RBRACE then ()
    else begin
      current := parse_element () :: !current;
      match peek st with
      | SEMI ->
          ignore (next st);
          go ()
      | COMMA ->
          ignore (next st);
          flush ();
          go ()
      | RBRACE -> ()
      | t -> error st (Fmt.str "expected ',' ';' or '}' but found %s" (token_name t))
    end
  in
  go ();
  flush ();
  List.rev !segments

let parse_type_item st : Ast.item list =
  (* After the 'type' keyword: alias, subtype, or relation declarations. *)
  let name = expect_ident st in
  match peek st with
  | EQ ->
      ignore (next st);
      let target = expect_ident st in
      [ Ast.I_type_alias { name; target } ]
  | SUBTYPE ->
      ignore (next st);
      let super = expect_ident st in
      [ Ast.I_subtype { name; super } ]
  | LPAREN ->
      let parse_rel_decl name =
        expect st LPAREN;
        let parse_field () =
          (* [name : type] or just [type] *)
          match (peek st, peek_at st 1) with
          | IDENT n, COLON ->
              ignore (next st);
              ignore (next st);
              let ty = expect_ident st in
              (Some n, ty)
          | IDENT ty, _ ->
              ignore (next st);
              (None, ty)
          | t, _ -> error st (Fmt.str "expected field but found %s" (token_name t))
        in
        let rec fields acc =
          if peek st = RPAREN then List.rev acc
          else begin
            let f = parse_field () in
            if peek st = COMMA then begin
              ignore (next st);
              fields (f :: acc)
            end
            else List.rev (f :: acc)
          end
        in
        let fs = fields [] in
        expect st RPAREN;
        Ast.I_rel_type { name; fields = fs }
      in
      let first = parse_rel_decl name in
      let rec more acc =
        if peek st = COMMA && (match peek_at st 1 with IDENT _ -> peek_at st 2 = LPAREN | _ -> false)
        then begin
          ignore (next st);
          let n = expect_ident st in
          more (parse_rel_decl n :: acc)
        end
        else List.rev acc
      in
      first :: more []
  | t -> error st (Fmt.str "expected '=', '<:' or '(' after type name but found %s" (token_name t))

let parse_const_item st : Ast.item =
  let rec go acc =
    let name = expect_ident st in
    let ty =
      if peek st = COLON then begin
        ignore (next st);
        Some (expect_ident st)
      end
      else None
    in
    expect st EQ;
    let e = parse_expr st in
    let acc = (name, ty, e) :: acc in
    if peek st = COMMA then begin
      ignore (next st);
      go acc
    end
    else List.rev acc
  in
  Ast.I_const (go [])

let parse_rel_item st : Ast.item =
  let tag = parse_tag st in
  (* [rel name = { ... }] fact set (only without a tag on the name). *)
  match (tag, peek st, peek_at st 1, peek_at st 2) with
  | None, IDENT pred, EQ, LBRACE ->
      ignore (next st);
      ignore (next st);
      ignore (next st);
      let segments = parse_fact_set_elements st in
      expect st RBRACE;
      Ast.I_fact_set { pred; segments }
  | _ -> (
      let head = parse_atom st in
      match peek st with
      | COLONDASH | EQ ->
          ignore (next st);
          let body = parse_formula st in
          Ast.I_rule { tag; head; body }
      | _ -> Ast.I_fact { tag; atom = head })

let parse_attribute st : Ast.attribute =
  match next st with
  | AT_IDENT attr_name ->
      let attr_args =
        if peek st = LPAREN then begin
          ignore (next st);
          let rec go acc =
            if peek st = RPAREN then List.rev acc
            else begin
              let c =
                match next st with
                | INT n -> Ast.C_int n
                | FLOAT f -> Ast.C_float f
                | STRING s -> Ast.C_str s
                | IDENT "true" -> Ast.C_bool true
                | IDENT "false" -> Ast.C_bool false
                | t -> error st (Fmt.str "expected constant attribute argument, found %s" (token_name t))
              in
              if peek st = COMMA then begin
                ignore (next st);
                go (c :: acc)
              end
              else List.rev (c :: acc)
            end
          in
          let args = go [] in
          expect st RPAREN;
          args
        end
        else []
      in
      { Ast.attr_name; attr_args }
  | t -> error st (Fmt.str "expected attribute, found %s" (token_name t))

let parse_decl st : Ast.decl list =
  let p = pos st in
  let rec attrs acc =
    match peek st with AT_IDENT _ -> attrs (parse_attribute st :: acc) | _ -> List.rev acc
  in
  let attrs = attrs [] in
  let items =
    match peek st with
    | IDENT "import" ->
        ignore (next st);
        let file =
          match next st with
          | STRING s -> s
          | t -> error st (Fmt.str "expected file path string, found %s" (token_name t))
        in
        [ Ast.I_import file ]
    | IDENT "type" ->
        ignore (next st);
        parse_type_item st
    | IDENT "const" ->
        ignore (next st);
        [ parse_const_item st ]
    | IDENT "rel" ->
        ignore (next st);
        [ parse_rel_item st ]
    | IDENT "query" ->
        ignore (next st);
        let name = expect_ident st in
        if peek st = LPAREN then begin
          ignore (next st);
          let args = parse_expr_list st in
          expect st RPAREN;
          [ Ast.I_query_atom { Ast.pred = name; args } ]
        end
        else [ Ast.I_query name ]
    | t -> error st (Fmt.str "expected item, found %s" (token_name t))
  in
  List.map (fun item -> { Ast.attrs; item; pos = p }) items

let parse_program (src : string) : Ast.program =
  let toks =
    try Lexer.tokenize src
    with Lexer.Lex_error (msg, p) -> raise (Parse_error (msg, p))
  in
  let st = { toks; idx = 0 } in
  let rec go acc = if peek st = EOF then List.rev acc else go (List.rev_append (parse_decl st) acc) in
  go []
