(** Syntax-level tests: lexer tokens, parser shapes, and acceptance of every
    program in the paper's appendix (our embedded Table 2 programs). *)

open Scallop_core

let check = Alcotest.check

(* ---- lexer -------------------------------------------------------------------- *)

let toks src =
  let t = Lexer.tokenize src in
  List.init t.Lexer.count (fun k -> t.Lexer.kinds.(k))

(* Each token with its line and column. *)
let spans src =
  let t = Lexer.tokenize src in
  List.init t.Lexer.count (fun k ->
      let pos = Lexer.pos t k in
      (t.Lexer.kinds.(k), pos.Ast.line, pos.Ast.col))

let test_lexer_punctuation () =
  check Alcotest.int "token count" 13
    (List.length (toks "( ) { } , ; :: := :- == != <:"))

let test_lexer_numbers () =
  match toks "42 3.14 1e3 2.5e-2" with
  | [ INT 42; FLOAT a; FLOAT b; FLOAT c; EOF ] ->
      check (Alcotest.float 1e-9) "pi" 3.14 a;
      check (Alcotest.float 1e-9) "1e3" 1000.0 b;
      check (Alcotest.float 1e-9) "2.5e-2" 0.025 c
  | _ -> Alcotest.fail "number lexing"

let test_lexer_strings_escapes () =
  match toks {|"a\nb" 'x' "\"q\""|} with
  | [ STRING "a\nb"; CHARLIT 'x'; STRING "\"q\""; EOF ] -> ()
  | _ -> Alcotest.fail "string lexing"

let test_lexer_comments () =
  match toks "1 // comment\n 2 /* block \n comment */ 3" with
  | [ INT 1; INT 2; INT 3; EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_dollar_at () =
  match toks "$hash @demand" with
  | [ DOLLAR_IDENT "hash"; AT_IDENT "demand"; EOF ] -> ()
  | _ -> Alcotest.fail "$/@ idents"

let test_lexer_error_position () =
  match Lexer.tokenize "rel p\n  #" with
  | exception Lexer.Lex_error (_, pos) ->
      check Alcotest.int "line" 2 pos.Ast.line;
      check Alcotest.int "col" 3 pos.Ast.col
  | _ -> Alcotest.fail "expected lex error"

let span_t =
  Alcotest.testable
    (fun ppf (tok, line, col) -> Fmt.pf ppf "%s@%d:%d" (Lexer.token_name tok) line col)
    ( = )

let check_spans name src expected =
  check (Alcotest.list span_t) name expected (spans src)

(* Every byte is one column, tabs and carriage returns included; a newline
   inside a comment, string or char literal starts a new line. *)
let test_lexer_positions () =
  let open Lexer in
  check_spans "tabs" "\ta\t\tb :: 7"
    [ (IDENT "a", 1, 2); (IDENT "b", 1, 5); (COLONCOLON, 1, 7); (INT 7, 1, 10); (EOF, 1, 11) ];
  check_spans "crlf" "a\r\nb\r\n  (" [ (IDENT "a", 1, 1); (IDENT "b", 2, 1); (LPAREN, 3, 3); (EOF, 3, 4) ];
  check_spans "block comment over lines" "x /* one\ntwo\n */ y"
    [ (IDENT "x", 1, 1); (IDENT "y", 3, 5); (EOF, 3, 6) ];
  check_spans "line comment" "// c\n  k //" [ (IDENT "k", 2, 3); (EOF, 2, 7) ];
  check_spans "string holding a newline" "\"a\nbc\" z"
    [ (STRING "a\nbc", 1, 1); (IDENT "z", 2, 5); (EOF, 2, 6) ];
  check_spans "char literals" "'q' ( '\\n' )\n'\n' _"
    [
      (CHARLIT 'q', 1, 1); (LPAREN, 1, 5); (CHARLIT '\n', 1, 7); (RPAREN, 1, 12);
      (CHARLIT '\n', 2, 1); (UNDERSCORE, 3, 3); (EOF, 3, 4);
    ];
  check_spans "numbers and $/@" "12.5e1 9e $f @a\n"
    [
      (FLOAT 125.0, 1, 1); (INT 9, 1, 8); (IDENT "e", 1, 9); (DOLLAR_IDENT "f", 1, 11);
      (AT_IDENT "a", 1, 14); (EOF, 2, 1);
    ];
  check_spans "empty source" "" [ (EOF, 1, 1) ];
  check_spans "only newlines" "\n\n" [ (EOF, 3, 1) ]

(* The message and position of every lexical error. *)
let test_lexer_errors () =
  let cases =
    [
      ("a /* open\n comment", "unterminated block comment", 1, 3);
      ("/*/", "unterminated block comment", 1, 1);
      ("x\n  \"abc", "unterminated string", 2, 3);
      ("\"ab\\", "unterminated string", 1, 1);
      ("'", "unterminated char literal", 1, 1);
      ("'\\", "unterminated char literal", 1, 1);
      ("\t'ab'", "unterminated char literal", 1, 2);
      ("'a", "unterminated char literal", 1, 1);
      ("p $ (", "expected identifier after '$'", 1, 3);
      ("\n@", "expected identifier after '@'", 2, 1);
      ("rel p = {#}", "unexpected character '#'", 1, 10);
      ("a & b", "unexpected character '&'", 1, 3);
      ("1 4611686018427387904", "integer literal 4611686018427387904 out of range", 1, 3);
      ("007 99999999999999999999", "integer literal 99999999999999999999 out of range", 1, 5);
    ]
  in
  List.iter
    (fun (src, msg, line, col) ->
      match Lexer.tokenize src with
      | exception Lexer.Lex_error (m, pos) ->
          check Alcotest.string (src ^ ": message") msg m;
          check Alcotest.(pair int int) (src ^ ": position") (line, col) (pos.Ast.line, pos.Ast.col)
      | _ -> Alcotest.failf "%S: expected a lex error" src)
    cases;
  (* the largest native int is still a literal *)
  check (Alcotest.list span_t) "max_int" [ (Lexer.INT max_int, 1, 1); (Lexer.EOF, 1, 20) ]
    (spans "4611686018427387903")

(* ---- parser -------------------------------------------------------------------- *)

let parse src = Parser.parse_program src
let items src = List.map (fun d -> d.Ast.item) (parse src)

let test_parse_type_decls () =
  match items "type mother(c: String, m: String), father(c: String, f: String)" with
  | [ Ast.I_rel_type { name = "mother"; fields = [ (Some "c", "String"); (Some "m", "String") ] };
      Ast.I_rel_type { name = "father"; _ } ] ->
      ()
  | _ -> Alcotest.fail "type decl shape"

let test_parse_type_alias_subtype () =
  match items "type Relation = usize\ntype Dog <: Animal" with
  | [ Ast.I_type_alias { name = "Relation"; target = "usize" };
      Ast.I_subtype { name = "Dog"; super = "Animal" } ] ->
      ()
  | _ -> Alcotest.fail "alias/subtype shape"

let test_parse_const_multi () =
  match items "const UP = 0, DOWN = 1, RIGHT = 2, LEFT = 3" with
  | [ Ast.I_const [ ("UP", None, _); ("DOWN", None, _); ("RIGHT", None, _); ("LEFT", None, _) ] ]
    ->
      ()
  | _ -> Alcotest.fail "const shape"

let test_parse_fact_set_separators () =
  match items {|rel k = {0.95::(0, "A"); 0.05::(1, "A"), (2, "B")}|} with
  | [ Ast.I_fact_set { pred = "k"; segments = [ seg1; seg2 ] } ] ->
      check Alcotest.int "first segment exclusive pair" 2 (List.length seg1);
      check Alcotest.int "second segment singleton" 1 (List.length seg2)
  | _ -> Alcotest.fail "fact set shape"

let test_parse_rule_both_arrows () =
  match items "rel gm(a, c) :- f(a, b), m(b, c)\nrel gm2(a, c) = f(a, b) and m(b, c)" with
  | [ Ast.I_rule _; Ast.I_rule _ ] -> ()
  | _ -> Alcotest.fail "rule arrows"

let test_parse_tagged_rule () =
  match items "rel 0.9::mother(a, c) = gm(a, b) and d(b, c)" with
  | [ Ast.I_rule { tag = Some t; _ } ] -> check (Alcotest.float 1e-9) "tag" 0.9 t
  | _ -> Alcotest.fail "tagged rule"

let test_parse_reduce_forms () =
  (* count, sampler with <K>, argmax with vars, where clause *)
  let src =
    {|rel a(n) = n := count(p: person(p))
rel b(r) = r := top<1>(rp: kinship(rp, x, y))
rel c(w) = w := argmax<n>(s: score(n, s))
rel d(p, n) = n := count(c: parent(c, p) where p: person(p))|}
  in
  match items src with
  | [ Ast.I_rule { body = Ast.F_reduce { op = Ast.R_aggregate "count"; _ }; _ };
      Ast.I_rule { body = Ast.F_reduce { op = Ast.R_sampler ("top", 1); _ }; _ };
      Ast.I_rule { body = Ast.F_reduce { op = Ast.R_arg_extremum ("argmax", [ "n" ]); _ }; _ };
      Ast.I_rule { body = Ast.F_reduce { where = Some ([ "p" ], _); _ }; _ } ] ->
      ()
  | _ -> Alcotest.fail "reduce forms"

let test_parse_forall_implies () =
  let src =
    {|rel ic(sat) = sat := forall(a, b: father(a, b) implies (son(b, a) or daughter(b, a)))|}
  in
  match items src with
  | [ Ast.I_rule { body = Ast.F_reduce { op = Ast.R_aggregate "forall"; binding_vars = [ "a"; "b" ]; _ }; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "forall shape"

let test_parse_paren_disambiguation () =
  (* (a + b) > c is a constraint, (p(x) or q(x)) is a formula *)
  match items "rel r(x) = s(x, a, b), (a + b) > 3\nrel t(x) = (p(x) or q(x)) and u(x)" with
  | [ Ast.I_rule { body = b1; _ }; Ast.I_rule { body = b2; _ } ] -> (
      (match b1 with
      | Ast.F_and (_, Ast.F_constraint (Ast.E_binop (Foreign.Gt, _, _))) -> ()
      | _ -> Alcotest.fail "constraint paren");
      match b2 with
      | Ast.F_and (Ast.F_or _, Ast.F_atom _) -> ()
      | _ -> Alcotest.fail "formula paren")
  | _ -> Alcotest.fail "paren disambiguation"

let test_parse_negative_numbers () =
  match items "rel p(-3)" with
  | [ Ast.I_fact { atom = { args = [ Ast.E_unop (Foreign.Neg, Ast.E_const (Ast.C_int 3)) ]; _ }; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "negative literal"

let test_parse_if_then_else () =
  match items {|rel p(if x > 0 then "pos" else "neg") = n(x)|} with
  | [ Ast.I_rule { head = { args = [ Ast.E_if _ ]; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "if-then-else in head"

let test_parse_attributes () =
  match parse {|@demand("bf") rel p(x) = q(x)|} with
  | [ { Ast.attrs = [ { Ast.attr_name = "demand"; attr_args = [ Ast.C_str "bf" ] } ]; _ } ] -> ()
  | _ -> Alcotest.fail "attributes"

let test_parse_query_import () =
  match items {|import "lib.scl"
query result|} with
  | [ Ast.I_import "lib.scl"; Ast.I_query "result" ] -> ()
  | _ -> Alcotest.fail "query/import"

let test_parse_error_positions () =
  match parse "rel p(x) = \n  = q(x)" with
  | exception Parser.Parse_error (_, pos) -> check Alcotest.int "line 2" 2 pos.Ast.line
  | _ -> Alcotest.fail "expected parse error"

(* Every appendix program must parse, typecheck and compile. *)
let test_all_paper_programs_compile () =
  List.iter
    (fun (name, src) ->
      match Session.compile src with
      | _ -> ()
      | exception Session.Error e ->
          Alcotest.failf "%s failed: %s" name (Session.error_string e))
    [
      ("mnist_sum2", Scallop_apps.Programs.mnist_sum2);
      ("mnist_sum3", Scallop_apps.Programs.mnist_sum3);
      ("mnist_sum4", Scallop_apps.Programs.mnist_sum4);
      ("mnist_less_than", Scallop_apps.Programs.mnist_less_than);
      ("mnist_not_3_or_4", Scallop_apps.Programs.mnist_not_3_or_4);
      ("mnist_count_3", Scallop_apps.Programs.mnist_count_3);
      ("mnist_count_3_or_4", Scallop_apps.Programs.mnist_count_3_or_4);
      ("hwf", Scallop_apps.Programs.hwf);
      ("pathfinder", Scallop_apps.Programs.pathfinder);
      ("pacman", Scallop_apps.Programs.pacman);
      ("clutrr", Scallop_apps.Programs.clutrr);
      ("mugen", Scallop_apps.Programs.mugen);
      ("clevr", Scallop_apps.Programs.clevr);
      ("vqar", Scallop_apps.Programs.vqar);
    ]

let suite =
  [
    Alcotest.test_case "lexer punctuation" `Quick test_lexer_punctuation;
    Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer strings/escapes" `Quick test_lexer_strings_escapes;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer $ and @" `Quick test_lexer_dollar_at;
    Alcotest.test_case "lexer error position" `Quick test_lexer_error_position;
    Alcotest.test_case "type declarations" `Quick test_parse_type_decls;
    Alcotest.test_case "alias and subtype" `Quick test_parse_type_alias_subtype;
    Alcotest.test_case "multi const" `Quick test_parse_const_multi;
    Alcotest.test_case "fact set separators" `Quick test_parse_fact_set_separators;
    Alcotest.test_case "rule arrows" `Quick test_parse_rule_both_arrows;
    Alcotest.test_case "tagged rule" `Quick test_parse_tagged_rule;
    Alcotest.test_case "reduce forms" `Quick test_parse_reduce_forms;
    Alcotest.test_case "forall/implies" `Quick test_parse_forall_implies;
    Alcotest.test_case "paren disambiguation" `Quick test_parse_paren_disambiguation;
    Alcotest.test_case "negative numbers" `Quick test_parse_negative_numbers;
    Alcotest.test_case "if-then-else" `Quick test_parse_if_then_else;
    Alcotest.test_case "attributes" `Quick test_parse_attributes;
    Alcotest.test_case "query and import" `Quick test_parse_query_import;
    Alcotest.test_case "parse error position" `Quick test_parse_error_positions;
    Alcotest.test_case "all paper programs compile" `Quick test_all_paper_programs_compile;
    Alcotest.test_case "lexer token positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer error messages and positions" `Quick test_lexer_errors;
  ]
