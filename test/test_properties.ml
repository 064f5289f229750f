(** Additional property-based suites (qcheck): value/tuple algebra, dual
    number calculus, lexer totality, dataset determinism, and gradient
    linearity — invariants that hold across the whole input space rather
    than on hand-picked cases. *)

open Scallop_core

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- values -------------------------------------------------------------------- *)

let int_ty_gen =
  QCheck.Gen.oneofl
    [ Value.I8; Value.I16; Value.I32; Value.I64; Value.U8; Value.U16; Value.U32; Value.USize ]

let qcheck_wrap_idempotent =
  qtest "integer wrapping is idempotent"
    QCheck.(pair (make int_ty_gen) int)
    (fun (ty, n) ->
      let once = Value.wrap_int ty n in
      Value.wrap_int ty once = once)

let qcheck_wrap_range =
  qtest "wrapped values fit their width"
    QCheck.(pair (make int_ty_gen) int)
    (fun (ty, n) ->
      let w = Value.wrap_int ty n in
      let bits = Value.bits_of_ty ty in
      if bits >= Sys.int_size then true
      else if Value.is_signed_ty ty then w >= -(1 lsl (bits - 1)) && w < 1 lsl (bits - 1)
      else w >= 0 && w < 1 lsl bits)

let qcheck_cast_int_to_string_roundtrip =
  qtest "i32 → String → i32 roundtrip" QCheck.int (fun n ->
      let v = Value.int Value.I32 n in
      match Value.cast Value.Str v with
      | Some s -> Value.cast Value.I32 s = Some v
      | None -> false)

let qcheck_value_compare_consistent_equal =
  qtest "compare = 0 iff equal"
    QCheck.(pair int int)
    (fun (a, b) ->
      let va = Value.int Value.I32 a and vb = Value.int Value.I32 b in
      Value.compare va vb = 0 = Value.equal va vb)

let qcheck_tuple_compare_transitive =
  qtest "tuple compare is transitive"
    QCheck.(triple (list small_int) (list small_int) (list small_int))
    (fun (a, b, c) ->
      let t l = Tuple.of_list (List.map (Value.int Value.I32) l) in
      let ta = t a and tb = t b and tc = t c in
      if Tuple.compare ta tb <= 0 && Tuple.compare tb tc <= 0 then Tuple.compare ta tc <= 0
      else true)

(* ---- duals ---------------------------------------------------------------------- *)

let small_prob = QCheck.float_range 0.01 0.99

let qcheck_dual_mul_commutes =
  qtest "dual multiplication commutes"
    QCheck.(pair small_prob small_prob)
    (fun (a, b) ->
      let da = Dual.var 0 a and db = Dual.var 1 b in
      let x = Dual.mul da db and y = Dual.mul db da in
      Float.abs (Dual.value x -. Dual.value y) < 1e-12
      && Dual.deriv_list x = Dual.deriv_list y)

let qcheck_dual_product_rule =
  qtest "dual product rule: d(ab)/da = b"
    QCheck.(pair small_prob small_prob)
    (fun (a, b) ->
      let p = Dual.mul (Dual.var 0 a) (Dual.var 1 b) in
      Float.abs (List.assoc 0 (Dual.deriv_list p) -. b) < 1e-12)

let qcheck_dual_complement_involution =
  qtest "complement is an involution" small_prob (fun a ->
      let d = Dual.var 0 a in
      let dd = Dual.complement (Dual.complement d) in
      Float.abs (Dual.value dd -. a) < 1e-12
      && Float.abs (List.assoc 0 (Dual.deriv_list dd) -. 1.0) < 1e-12)

let qcheck_dual_gradient_linearity =
  qtest "d(x + x)/dx = 2" small_prob (fun a ->
      let d = Dual.var 0 a in
      Float.abs (List.assoc 0 (Dual.deriv_list (Dual.add d d)) -. 2.0) < 1e-12)

(* ---- lexer totality -------------------------------------------------------------- *)

let qcheck_lexer_total =
  qtest ~count:500 "lexer never crashes (tokens or clean error)" QCheck.printable_string
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception _ -> false)

let qcheck_parser_contained =
  qtest ~count:300 "parser raises only Parse_error" QCheck.printable_string (fun s ->
      match Parser.parse_program s with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception _ -> false)

(* ---- literal fact blocks ----------------------------------------------------------- *)

let all_tys =
  Value.[ I8; I16; I32; I64; ISize; U8; U16; U32; U64; USize; F32; F64; Bool; Char; Str ]

(* A literal of the kind that fits [ty], as written and as [(l + 0)]
   ([(l + 0.0)] for a float), which only the constant-expression evaluator
   can lower. *)
let literal_gen (ty : Value.ty) =
  let open QCheck.Gen in
  let same s = (s, s) in
  let plus zero s = (s, Printf.sprintf "(%s + %s)" s zero) in
  match ty with
  | _ when Value.is_integer_ty ty ->
      map (fun n -> plus "0" (string_of_int n))
        (oneof [ int_bound 300; int_bound 70_000; int_bound max_int ])
  | Value.F32 | Value.F64 ->
      map (plus "0.0")
        (oneof
           [
             map2 (Printf.sprintf "%d.%d") (int_bound 1000) (int_bound 999);
             map2 (Printf.sprintf "%de%d") (int_bound 9) (int_bound 400);
           ])
  | Value.Bool -> map (fun b -> same (string_of_bool b)) bool
  | Value.Char -> map (fun c -> same (Printf.sprintf "'%c'" c)) (char_range 'a' 'z')
  | _ -> map (fun n -> same (Printf.sprintf "\"s%d\"" n)) (int_bound 50)

(* A fact block over random column types, declared or left to inference;
   most literals fit their column, some do not, so type errors are
   compared as well as values. *)
let literal_block_gen =
  let open QCheck.Gen in
  let* tys = list_size (int_range 1 3) (oneofl all_tys) in
  let* declared = frequencyl [ (3, true); (1, false) ] in
  let arg ty = frequency [ (6, literal_gen ty); (1, oneofl all_tys >>= literal_gen) ] in
  let elem =
    let* args = flatten_l (List.map arg tys) in
    let* tag = frequency [ (2, return ""); (1, map (Printf.sprintf "0.%d::") (int_bound 99)) ] in
    let* sep = oneofl [ ", "; "; " ] in
    let tuple proj = Printf.sprintf "%s(%s)" tag (String.concat ", " (List.map proj args)) in
    return (tuple fst ^ sep, tuple snd ^ sep)
  in
  let* elems = list_size (int_range 1 6) elem in
  let decl =
    if declared then
      Printf.sprintf "type r(%s)\n" (String.concat ", " (List.map Value.ty_name tys))
    else ""
  in
  let block proj =
    let body = String.concat "" (List.map proj elems) in
    (* drop the separator after the last element *)
    let body = String.sub body 0 (String.length body - 2) in
    Printf.sprintf "%srel r = {%s}\nquery r" decl body
  in
  return (block fst, block snd)

let compiled_facts src =
  match Session.compile src with
  | c -> Ok c.Session.static_facts
  | exception Session.Error e -> Error (Session.error_string e)

let qcheck_literal_facts_match_evaluator =
  qtest ~count:400 "literal facts lower as the constant evaluator does"
    (QCheck.make ~print:(fun (a, b) -> a ^ "\n----\n" ^ b) literal_block_gen)
    (fun (written, through_evaluator) ->
      compiled_facts written = compiled_facts through_evaluator)

(* ---- formula algebra -------------------------------------------------------------- *)

let proof_gen =
  QCheck.Gen.(
    map
      (fun lits -> Formula.proof_of_literals lits)
      (list_size (int_range 1 4) (pair (int_range 0 5) bool)))

let formula_gen = QCheck.Gen.(map Formula.dedup (list_size (int_range 0 4) proof_gen))

let env6 = Formula.env (fun v -> 0.15 +. (0.12 *. float_of_int (v mod 6)))

let qcheck_disj_monotone =
  qtest ~count:150 "WMC(a ∨ b) ≥ max(WMC a, WMC b) at large k"
    (QCheck.make QCheck.Gen.(pair formula_gen formula_gen))
    (fun (a, b) ->
      let w f = Wmc.prob ~env:env6 f in
      w (Formula.disj_k env6 100 a b) +. 1e-9 >= Float.max (w a) (w b))

let qcheck_conj_bounded =
  qtest ~count:150 "WMC(a ∧ b) ≤ min(WMC a, WMC b) at large k"
    (QCheck.make QCheck.Gen.(pair formula_gen formula_gen))
    (fun (a, b) ->
      let w f = Wmc.prob ~env:env6 f in
      w (Formula.conj_k env6 100 a b) <= Float.min (w a) (w b) +. 1e-9)

let qcheck_negation_complements =
  qtest ~count:100 "WMC(¬a) = 1 − WMC(a) at large k"
    (QCheck.make formula_gen)
    (fun a ->
      let w f = Wmc.prob ~env:env6 f in
      Float.abs (w (Formula.neg_k ~beam:4096 env6 1000 a) -. (1.0 -. w a)) < 1e-6)

(* ---- dataset determinism ------------------------------------------------------------ *)

let test_generators_deterministic () =
  let strings_of_hwf seed =
    let d = Scallop_data.Hwf.create ~seed () in
    List.concat_map (fun (s : Scallop_data.Hwf.sample) -> s.Scallop_data.Hwf.syms)
      (Scallop_data.Hwf.dataset d 20)
  in
  Alcotest.(check (list string)) "hwf deterministic" (strings_of_hwf 5) (strings_of_hwf 5);
  let clutrr_targets seed =
    let d = Scallop_data.Clutrr.create ~seed () in
    List.map (fun (s : Scallop_data.Clutrr.sample) -> s.Scallop_data.Clutrr.target)
      (Scallop_data.Clutrr.dataset d ~k:2 20)
  in
  Alcotest.(check (list int)) "clutrr deterministic" (clutrr_targets 6) (clutrr_targets 6);
  let mnist_digits seed =
    let d = Scallop_data.Mnist.create ~seed () in
    List.concat_map (fun (s : Scallop_data.Mnist.sample) -> s.Scallop_data.Mnist.digits)
      (Scallop_data.Mnist.dataset d Scallop_data.Mnist.Sum2 20)
  in
  Alcotest.(check (list int)) "mnist deterministic" (mnist_digits 7) (mnist_digits 7)

(* ---- session-level gradient check ---------------------------------------------------- *)

let test_session_gradient_finite_diff () =
  (* ∂/∂p of P(path 0→2) through a full Session.run, vs central differences *)
  let src =
    {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let compiled = Session.compile src in
  let t02 = Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 2 ] in
  let run probs =
    let facts =
      [
        ( "edge",
          [
            (Provenance.Input.prob probs.(0), Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 1 ]);
            (Provenance.Input.prob probs.(1), Tuple.of_list [ Value.int Value.I32 1; Value.int Value.I32 2 ]);
            (Provenance.Input.prob probs.(2), t02);
          ] );
      ]
    in
    Session.run ~provenance:(Registry.create (Registry.Diff_top_k_proofs 10)) compiled ~facts ()
  in
  let probs = [| 0.6; 0.7; 0.4 |] in
  let base = run probs in
  let grads =
    match List.find_opt (fun (t, _) -> Tuple.compare t t02 = 0) (Session.output base "path") with
    | Some (_, o) -> Provenance.Output.gradient o
    | None -> Alcotest.fail "path(0,2) missing"
  in
  let eps = 1e-6 in
  List.iter
    (fun (i, g) ->
      let p f =
        let probs' = Array.copy probs in
        probs'.(i) <- probs'.(i) +. f;
        Session.prob_of (run probs') "path" t02
      in
      let fd = (p eps -. p (-.eps)) /. (2.0 *. eps) in
      Alcotest.(check (float 1e-4)) (Fmt.str "∂P/∂r%d" i) fd g)
    grads

let suite =
  [
    qcheck_wrap_idempotent;
    qcheck_wrap_range;
    qcheck_cast_int_to_string_roundtrip;
    qcheck_value_compare_consistent_equal;
    qcheck_tuple_compare_transitive;
    qcheck_dual_mul_commutes;
    qcheck_dual_product_rule;
    qcheck_dual_complement_involution;
    qcheck_dual_gradient_linearity;
    qcheck_lexer_total;
    qcheck_parser_contained;
    qcheck_disj_monotone;
    qcheck_conj_bounded;
    qcheck_negation_complements;
    Alcotest.test_case "generators deterministic" `Quick test_generators_deterministic;
    Alcotest.test_case "session gradient vs finite diff" `Quick test_session_gradient_finite_diff;
    qcheck_literal_facts_match_evaluator;
  ]
