(** End-to-end tests of the Scallop language through {!Session}: every
    construct of paper Sec. 3 — facts and fact sets, Horn rules, recursion,
    stratified negation and aggregation, foreign functions and their failure
    semantics, constants, connectives, probabilistic facts/rules, samplers,
    forall/exists, group-by — executed under discrete and probabilistic
    provenances and checked against hand-computed results. *)

open Scallop_core

let check = Alcotest.check

let run ?(provenance = Registry.Boolean) ?facts ?(seed = 0) src =
  let config =
    { (Interp.default_config ()) with Interp.rng = Scallop_utils.Rng.create seed }
  in
  Session.interpret ~config ~provenance:(Registry.create provenance) ?facts src

(** Extract an output relation as a sorted list of tuple strings with
    probabilities rounded to 4 decimals. *)
let rows result pred =
  Session.output result pred
  |> List.map (fun (t, o) -> Fmt.str "%a@%.4f" Tuple.pp t (Provenance.Output.prob o))
  |> List.sort compare

let rows_no_prob result pred =
  Session.output result pred |> List.map (fun (t, _) -> Tuple.to_string t) |> List.sort compare

let slist = Alcotest.(list string)

(* ---- facts and basic rules ------------------------------------------------------ *)

let test_single_fact () =
  let r = run {|rel greeting("hello")
query greeting|} in
  check slist "fact" [ {|("hello")|} ] (rows_no_prob r "greeting")

let test_fact_set () =
  let r = run {|rel person = {"Alice", "Bob", "Christine"}
query person|} in
  check Alcotest.int "three people" 3 (List.length (rows_no_prob r "person"))

let test_fact_tuples () =
  let r =
    run
      {|type edge(i32, i32)
rel edge = {(0, 1), (1, 2)}
rel out(b) = edge(1, b)
query out|}
  in
  check slist "selected" [ "(2)" ] (rows_no_prob r "out")

let test_conjunction_join () =
  let r =
    run
      {|rel mother = {("Bob", "Christine")}
rel father = {("Alice", "Bob")}
rel grandmother(a, c) :- father(a, b), mother(b, c)
query grandmother|}
  in
  check slist "join" [ {|("Alice", "Christine")|} ] (rows_no_prob r "grandmother")

let test_disjunction_two_rules () =
  let r =
    run
      {|rel a = {1}
rel b = {2}
rel c(x) = a(x)
rel c(x) = b(x)
query c|}
  in
  check slist "union" [ "(1)"; "(2)" ] (rows_no_prob r "c")

let test_logical_connectives () =
  let r =
    run
      {|rel mother = {("Bob", "Christine"), ("Dana", "Erin")}
rel father = {("Alice", "Bob")}
rel parent(a, b) = mother(a, b) or father(a, b)
rel gm(a, c) = (mother(a, b) or father(a, b)) and mother(b, c)
query parent
query gm|}
  in
  check Alcotest.int "three parents" 3 (List.length (rows_no_prob r "parent"));
  check slist "grandmother via or" [ {|("Alice", "Christine")|} ] (rows_no_prob r "gm")

let test_implies_in_body () =
  (* p implies q  ≡  ¬p ∨ q; with p false the implication holds *)
  let r =
    run
      {|rel item = {1, 2}
rel flagged = {2}
rel special = {2}
rel ok(x) = item(x) and (flagged(x) implies special(x))
query ok|}
  in
  check slist "implication" [ "(1)"; "(2)" ] (rows_no_prob r "ok")

let test_wildcards () =
  let r =
    run
      {|type edge(i32, i32)
rel edge = {(0, 1), (0, 2), (3, 1)}
rel has_succ(x) = edge(x, _)
query has_succ|}
  in
  check slist "wildcard" [ "(0)"; "(3)" ] (rows_no_prob r "has_succ")

let test_constants () =
  let r =
    run
      {|const FATHER = 0, MOTHER = 1, GRANDMOTHER = 2
rel composition(FATHER, MOTHER, GRANDMOTHER)
rel out(c) = composition(0, 1, c)
query out|}
  in
  check slist "const" [ "(2)" ] (rows_no_prob r "out")

let test_typed_const_and_cast () =
  let r =
    run {|const X: u8 = 300
rel v(X)
query v|}
  in
  (* 300 wraps to 44 in u8 *)
  check slist "u8 const wraps" [ "(44)" ] (rows_no_prob r "v")

(* ---- value expressions and foreign functions ------------------------------------- *)

let test_arithmetic_in_head () =
  let r =
    run {|type digit_1(u32), digit_2(u32)
rel digit_1 = {3}
rel digit_2 = {4}
rel sum_2(a + b) = digit_1(a), digit_2(b)
query sum_2|}
  in
  check slist "sum" [ "(7)" ] (rows_no_prob r "sum_2")

let test_comparison_result () =
  let r =
    run
      {|type digit_1(u32), digit_2(u32)
rel digit_1 = {3}
rel digit_2 = {4}
rel less_than(a < b) = digit_1(a), digit_2(b)
query less_than|}
  in
  check slist "comparison value" [ "(true)" ] (rows_no_prob r "less_than")

let test_division_failure_drops_fact () =
  (* paper Sec. 3.2: result contains only 6/1 and 6/2 — division by zero is
     omitted, not an error *)
  let r =
    run {|rel denominator = {0, 1, 2}
rel result(6 / x) = denominator(x)
query result|}
  in
  check slist "div by zero dropped" [ "(3)"; "(6)" ] (rows_no_prob r "result")

let test_string_concat_ff () =
  let r =
    run
      {|rel first_name("Alice")
rel last_name("Lee")
rel full_name($string_concat(x, " ", y)) = first_name(x), last_name(y)
query full_name|}
  in
  check slist "concat" [ {|("Alice Lee")|} ] (rows_no_prob r "full_name")

let test_ff_in_body_atom () =
  (* expressions inside body atom arguments (HWF-style m + 1) *)
  let r =
    run
      {|type sym(usize, String)
rel sym = {(0, "a"), (1, "b"), (2, "c")}
rel pair(x, y) = sym(i, x), sym(i + 1, y)
query pair|}
  in
  check slist "shifted join" [ {|("a", "b")|}; {|("b", "c")|} ] (rows_no_prob r "pair")

let test_cast_expr () =
  let r =
    run {|rel n = {42}
rel s(x as String) = n(x)
query s|}
  in
  check slist "cast to string" [ {|("42")|} ] (rows_no_prob r "s")

let test_if_then_else () =
  let r =
    run
      {|rel n = {1, 5}
rel label(x, if x > 3 then "big" else "small") = n(x)
query label|}
  in
  check slist "conditional" [ {|(1, "small")|}; {|(5, "big")|} ] (rows_no_prob r "label")

let test_string_comparison_select () =
  let r =
    run
      {|rel sym = {(0, "+"), (1, "-")}
rel plus_at(i) = sym(i, "+")
query plus_at|}
  in
  check slist "string const select" [ "(0)" ] (rows_no_prob r "plus_at")

let test_nan_dropped () =
  let r =
    run
      {|type v(f32)
rel v = {4.0, -1.0}
rel r($sqrt(x)) = v(x)
query r|}
  in
  (* sqrt(-1) fails, only sqrt(4) survives *)
  check slist "nan dropped" [ "(2)" ] (rows_no_prob r "r")

(* ---- recursion --------------------------------------------------------------------- *)

let test_transitive_closure () =
  let r =
    run
      {|type edge(i32, i32)
rel edge = {(0, 1), (1, 2), (2, 3)}
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  check Alcotest.int "6 paths" 6 (List.length (rows_no_prob r "path"))

let test_mutual_recursion () =
  let r =
    run
      {|type num(i32)
rel num = {0, 1, 2, 3, 4, 5}
rel even(0)
rel even(x) = odd(y), num(x), x == y + 1
rel odd(x) = even(y), num(x), x == y + 1
query even
query odd|}
  in
  check slist "evens" [ "(0)"; "(2)"; "(4)" ] (rows_no_prob r "even");
  check slist "odds" [ "(1)"; "(3)"; "(5)" ] (rows_no_prob r "odd")

let test_kinship_composition_recursion () =
  let r =
    run
      {|const F = 0, M = 1, GM = 2, GGM = 3
rel composition = {(F, M, GM), (M, M, GM), (GM, M, GGM)}
rel kinship = {(F, "a", "b"), (M, "b", "c"), (M, "c", "d")}
rel kinship(r3, x, z) = kinship(r1, x, y), kinship(r2, y, z), composition(r1, r2, r3)
rel ggm(x, y) = kinship(3, x, y)
query ggm|}
  in
  check slist "great grandmother" [ {|("a", "d")|} ] (rows_no_prob r "ggm")

(* ---- negation ------------------------------------------------------------------------ *)

let test_stratified_negation () =
  let r =
    run
      {|rel person = {"Alice", "Bob", "Christine"}
rel father = {("Alice", "Bob")}
rel mother = {("Bob", "Christine")}
rel has_no_children(p) = person(p) and not father(_, p) and not mother(_, p)
query has_no_children|}
  in
  check slist "no children" [ {|("Alice")|} ] (rows_no_prob r "has_no_children")

let test_negation_with_constant () =
  let r =
    run {|type digit(u32)
rel digit = {5}
rel not_3_or_4() = not digit(3) and not digit(4)
query not_3_or_4|}
  in
  check slist "nullary negation" [ "()" ] (rows_no_prob r "not_3_or_4")

let test_negation_rejects_unstratified () =
  Alcotest.check_raises "unstratified program rejected"
    (Session.Error
       (Exec_error.Unstratifiable { head = "something_is_true"; dep = "something_is_true" }))
    (fun () -> ignore (run {|rel something_is_true() = not something_is_true()|}))

let test_negation_in_recursion_across_strata () =
  (* negation of a lower stratum inside a recursive rule is fine *)
  let r =
    run
      {|type edge(i32, i32), blocked(i32)
rel edge = {(0, 1), (1, 2), (2, 3)}
rel blocked = {2}
rel reach(0)
rel reach(y) = reach(x), edge(x, y), not blocked(y)
query reach|}
  in
  check slist "blocked stops" [ "(0)"; "(1)" ] (rows_no_prob r "reach")

(* ---- aggregation ----------------------------------------------------------------------- *)

let test_count () =
  let r =
    run {|rel person = {"Alice", "Bob", "Christine"}
rel num_people(n) = n := count(p: person(p))
query num_people|}
  in
  check slist "count 3" [ "(3)" ] (rows_no_prob r "num_people")

let test_count_group_by_where () =
  let r =
    run
      {|rel person = {"Alice", "Bob", "Christine"}
rel parent = {("Bob", "Alice"), ("Christine", "Alice")}
rel num_child(p, n) = n := count(c: parent(c, p) where p: person(p))
query num_child|}
  in
  (* Alice has 2; Bob and Christine have 0 (domain from where clause) *)
  check slist "group counts"
    [ {|("Alice", 2)|}; {|("Bob", 0)|}; {|("Christine", 0)|} ]
    (rows_no_prob r "num_child")

let test_sum_and_prod () =
  let r =
    run
      {|type sale(String, i32)
rel sale = {("a", 3), ("b", 4), ("c", 5)}
rel total(t) = t := sum(x: sale(_, x))
rel product(t) = t := prod(x: sale(_, x))
query total
query product|}
  in
  check slist "sum" [ "(12)" ] (rows_no_prob r "total");
  check slist "prod" [ "(60)" ] (rows_no_prob r "product")

let test_min_max () =
  let r =
    run
      {|rel score = {3, 9, 4}
rel best(x) = x := max(s: score(s))
rel worst(x) = x := min(s: score(s))
query best
query worst|}
  in
  check slist "max" [ "(9)" ] (rows_no_prob r "best");
  check slist "min" [ "(3)" ] (rows_no_prob r "worst")

let test_argmax () =
  let r =
    run
      {|type score(String, i32)
rel score = {("a", 3), ("b", 9), ("c", 4)}
rel winner(w) = w := argmax<n>(s: score(n, s))
query winner|}
  in
  check slist "argmax" [ {|("b")|} ] (rows_no_prob r "winner")

let test_exists () =
  let r =
    run
      {|rel num = {1, 2, 3}
rel any_big(b) = b := exists(x: num(x) and x > 2)
rel any_huge(b) = b := exists(x: num(x) and x > 10)
query any_big
query any_huge|}
  in
  check slist "exists true" [ "(true)" ] (rows_no_prob r "any_big");
  check slist "exists false" [ "(false)" ] (rows_no_prob r "any_huge")

let test_forall_integrity_constraint () =
  let r =
    run
      {|type father(String, String), son(String, String)
rel father = {("a", "b")}
rel son = {("b", "a")}
rel sat(b) = b := forall(x, y: father(x, y) implies son(y, x))
query sat|}
  in
  check slist "constraint satisfied" [ "(true)" ] (rows_no_prob r "sat")

let test_forall_violated () =
  let r =
    run
      {|type father(String, String), son(String, String)
rel father = {("a", "b"), ("c", "d")}
rel son = {("b", "a")}
rel sat(b) = b := forall(x, y: father(x, y) implies son(y, x))
query sat|}
  in
  check slist "constraint violated" [ "(false)" ] (rows_no_prob r "sat")

let test_implicit_group_by () =
  (* paper Sec. 3.3: a and b are implicit group-by variables *)
  let r =
    run
      {|type kinship(usize, String, String)
rel kinship = {(0, "A", "B"), (1, "A", "B"), (0, "C", "D")}
rel n_rel(a, b, n) = n := count(rp: kinship(rp, a, b))
query n_rel|}
  in
  check slist "implicit groups" [ {|("A", "B", 2)|}; {|("C", "D", 1)|} ] (rows_no_prob r "n_rel")

let test_aggregate_rejects_recursion () =
  Alcotest.check_raises "aggregation through recursion rejected"
    (Session.Error (Exec_error.Unstratifiable { head = "p"; dep = "p" }))
    (fun () -> ignore (run {|rel p(n) = n := count(x: p(x))|}))

let test_count_over_empty () =
  let r =
    run {|type item(i32)
rel num(n) = n := count(x: item(x))
query num|}
  in
  check slist "count of empty" [ "(0)" ] (rows_no_prob r "num")

(* ---- samplers ----------------------------------------------------------------------------- *)

let test_top_1_sampler () =
  let r =
    run ~provenance:Registry.Max_min_prob
      ~facts:
        [
          ( "kinship",
            [
              (Provenance.Input.prob 0.95, Tuple.of_list [ Value.int Value.USize 0 ]);
              (Provenance.Input.prob 0.01, Tuple.of_list [ Value.int Value.USize 1 ]);
              (Provenance.Input.prob 0.04, Tuple.of_list [ Value.int Value.USize 2 ]);
            ] );
        ]
      {|type kinship(usize)
rel top_1(r) = r := top<1>(rp: kinship(rp))
query top_1|}
  in
  check slist "top-1 keeps most likely" [ "(0)@0.9500" ] (rows r "top_1")

let test_top_k_group_by () =
  let r =
    run ~provenance:Registry.Max_min_prob
      ~facts:
        [
          ( "kinship",
            [
              (Provenance.Input.prob 0.9, Tuple.of_list [ Value.int Value.USize 0; Value.string "A" ]);
              (Provenance.Input.prob 0.1, Tuple.of_list [ Value.int Value.USize 1; Value.string "A" ]);
              (Provenance.Input.prob 0.2, Tuple.of_list [ Value.int Value.USize 0; Value.string "B" ]);
              (Provenance.Input.prob 0.8, Tuple.of_list [ Value.int Value.USize 1; Value.string "B" ]);
            ] );
        ]
      {|type kinship(usize, String)
rel top_1(r, p) = r := top<1>(rp: kinship(rp, p))
query top_1|}
  in
  check slist "per-group top-1" [ {|(0, "A")@0.9000|}; {|(1, "B")@0.8000|} ] (rows r "top_1")

let uniform_src =
  {|rel item = {1, 2, 3, 4, 5, 6, 7, 8}
rel picked(x) = x := uniform<3>(i: item(i))
query picked|}

let categorical_src =
  {|type item(usize)
rel item = {0.1::(1), 0.2::(2), 0.3::(3), 0.15::(4), 0.25::(5)}
rel picked(x) = x := categorical<3>(i: item(i))
query picked|}

(* Samplers draw without replacement: exactly min(k, |population|) results. *)
let test_uniform_sampler_count () =
  for seed = 0 to 20 do
    let r = run ~seed uniform_src in
    check Alcotest.int "uniform<3> returns exactly 3" 3
      (List.length (rows_no_prob r "picked"))
  done;
  (* k ≥ population: everything is returned *)
  let r =
    run ~seed:5 {|rel item = {1, 2}
rel picked(x) = x := uniform<3>(i: item(i))
query picked|}
  in
  check slist "k past population" [ "(1)"; "(2)" ] (rows_no_prob r "picked")

let test_categorical_sampler_count () =
  for seed = 0 to 20 do
    let r = run ~provenance:Registry.Max_min_prob ~seed categorical_src in
    check Alcotest.int "categorical<3> returns exactly 3" 3
      (List.length (rows_no_prob r "picked"))
  done;
  (* zero total weight (boolean provenance weights are all equal): still k *)
  let r = run ~seed:3 {|rel item = {1, 2, 3, 4}
rel picked(x) = x := categorical<2>(i: item(i))
query picked|} in
  check Alcotest.int "categorical under uniform weights" 2
    (List.length (rows_no_prob r "picked"))

let test_sampler_determinism () =
  (* same seed → same sample; and samples arrive in sorted tuple order *)
  List.iter
    (fun src ->
      let a = rows_no_prob (run ~seed:11 src) "picked" in
      let b = rows_no_prob (run ~seed:11 src) "picked" in
      check slist "same seed, same sample" a b;
      let unsorted =
        Session.output (run ~seed:11 src) "picked" |> List.map (fun (t, _) -> Tuple.to_string t)
      in
      check slist "emitted in deterministic sorted order" a unsorted)
    [ uniform_src; categorical_src ];
  (* different seeds eventually differ (uniform<3> of 8: 56 subsets) *)
  let base = rows_no_prob (run ~seed:0 uniform_src) "picked" in
  let any_diff =
    List.exists
      (fun seed -> rows_no_prob (run ~seed uniform_src) "picked" <> base)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  check Alcotest.bool "seed actually varies the draw" true any_diff

(* ---- probabilistic extensions ------------------------------------------------------------------ *)

let prob_of result pred tuple_str =
  Session.output result pred
  |> List.find_opt (fun (t, _) -> Tuple.to_string t = tuple_str)
  |> Option.map (fun (_, o) -> Provenance.Output.prob o)

let test_probabilistic_facts () =
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type coin(usize)
rel coin = {0.6::(0); 0.4::(1)}
rel heads() = coin(0)
query heads|}
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "p heads" (Some 0.6) (prob_of r "heads" "()")

let test_independent_vs_exclusive () =
  (* comma-separated facts are independent: both can hold *)
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type f(usize)
rel f = {0.5::(0), 0.5::(1)}
rel both() = f(0), f(1)
query both|}
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "independent product" (Some 0.25)
    (prob_of r "both" "()");
  (* semicolon-separated facts are mutually exclusive: conjunction impossible *)
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type f(usize)
rel f = {0.5::(0); 0.5::(1)}
rel both() = f(0), f(1)
query both|}
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "exclusive conjunction" None
    (prob_of r "both" "()")

let test_probabilistic_rule () =
  (* paper Sec. 3.3: rule tagged 0.9 via auxiliary fact *)
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type gm(String, String), d(String, String)
rel gm = {("a", "b")}
rel d = {("b", "c")}
rel 0.9::mother(a, c) = gm(a, b) and d(b, c)
query mother|}
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "rule confidence" (Some 0.9)
    (prob_of r "mother" {|("a", "c")|})

let test_noisy_or_two_derivations () =
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type e(i32, i32)
rel e = {0.5::(0, 1), 0.5::(0, 2), 1.0::(1, 3), 1.0::(2, 3)}
rel reach(0)
rel reach(y) = reach(x), e(x, y)
rel goal() = reach(3)
query goal|}
  in
  (* P(reach 3) = 1 - (1-0.5)(1-0.5) = 0.75 *)
  check (Alcotest.option (Alcotest.float 1e-6)) "noisy or" (Some 0.75) (prob_of r "goal" "()")

let test_exact_matches_topk_on_small () =
  let src =
    {|type e(i32, i32)
rel e = {0.9::(0, 1), 0.8::(1, 2), 0.7::(0, 2)}
rel path(a, b) = e(a, b)
rel path(a, c) = path(a, b), e(b, c)
query path|}
  in
  let exact = run ~provenance:Registry.Exact_prob src in
  let topk = run ~provenance:(Registry.Top_k_proofs 10) src in
  check slist "exact = top-10 on 2 proofs" (rows exact "path") (rows topk "path")

let test_mmp_semantics () =
  (* max-min-prob: max over derivations of min over facts *)
  let r =
    run ~provenance:Registry.Max_min_prob
      {|type e(i32, i32)
rel e = {0.9::(0, 1), 0.8::(1, 2), 0.6::(0, 2)}
rel path(a, b) = e(a, b)
rel path(a, c) = path(a, b), e(b, c)
query path|}
  in
  (* path(0,2): max(0.6, min(0.9, 0.8)) = 0.8 *)
  check (Alcotest.option (Alcotest.float 1e-6)) "mmp path" (Some 0.8)
    (prob_of r "path" "(0, 2)")

let test_probabilistic_negation () =
  let r =
    run ~provenance:(Registry.Top_k_proofs 10)
      {|type a(i32), b(i32)
rel a = {0.8::(1)}
rel b = {0.3::(1)}
rel only_a(x) = a(x), not b(x)
query only_a|}
  in
  (* P = 0.8 * (1 - 0.3) = 0.56 *)
  check (Alcotest.option (Alcotest.float 1e-6)) "diff-2 semantics" (Some 0.56)
    (prob_of r "only_a" "(1)")

let test_probabilistic_count () =
  let r =
    run ~provenance:(Registry.Top_k_proofs 20)
      {|type enemy(i32)
rel enemy = {0.8::(0), 0.5::(1)}
rel n(x) = x := count(e: enemy(e))
query n|}
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "count 0" (Some 0.1) (prob_of r "n" "(0)");
  check (Alcotest.option (Alcotest.float 1e-6)) "count 1" (Some 0.5) (prob_of r "n" "(1)");
  check (Alcotest.option (Alcotest.float 1e-6)) "count 2" (Some 0.4) (prob_of r "n" "(2)")

(* ---- foreign predicates -------------------------------------------------------------------------- *)

let test_range () =
  let r =
    run {|rel cell(x, y) = range(0, 3, x), range(0, 2, y)
query cell|}
  in
  check Alcotest.int "3x2 grid" 6 (List.length (rows_no_prob r "cell"))

let test_range_with_negation () =
  let r =
    run
      {|type enemy(i32, i32)
rel enemy = {(1, 1)}
rel safe(x, y) = range(0, 2, x), range(0, 2, y), not enemy(x, y)
query safe|}
  in
  check Alcotest.int "3 safe cells" 3 (List.length (rows_no_prob r "safe"))

let test_string_chars () =
  let r =
    run {|rel word = {"abc"}
rel c(i, ch) = word(w), string_chars(w, i, ch)
query c|}
  in
  check slist "chars" [ "(0, 'a')"; "(1, 'b')"; "(2, 'c')" ] (rows_no_prob r "c")

(* ---- error reporting --------------------------------------------------------------------------- *)

let expect_error src f =
  match run src with
  | exception Session.Error e ->
      let msg = Session.error_string e in
      if not (f msg) then Alcotest.failf "unexpected error message: %s" msg
  | _ -> Alcotest.fail "expected an error"

let test_unbound_head_var () =
  expect_error {|rel p(x, y) = q(x)
rel q = {1}|} (fun msg ->
      Scallop_utils.Listx.range 0 1 |> ignore;
      String.length msg > 0
      && (String.length msg >= 7 && String.sub msg 0 5 = "error"
         || String.length msg > 0))

let test_arity_mismatch () =
  expect_error {|rel p = {(1, 2)}
rel q(x) = p(x)|} (fun msg ->
      let has_sub s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      has_sub msg "arity")

let test_type_mismatch () =
  expect_error {|type p(i32)
rel p = {"hello"}|} (fun _ -> true)

let test_parse_error_reported () =
  expect_error {|rel p = |} (fun msg ->
      String.length msg >= 11 && String.sub msg 0 11 = "parse error")

let test_unbound_negated_var () =
  expect_error {|rel q = {1}
rel p(x) = q(x), not r(y)
rel r = {1}|} (fun _ -> true)

(* ---- multi-output / query behaviour ------------------------------------------------------------- *)

let test_query_restricts_outputs () =
  let r =
    run {|rel a = {1}
rel b(x) = a(x)
rel c(x) = b(x)
query c|}
  in
  check Alcotest.int "only one output" 1 (List.length r.Session.outputs)

let test_import () =
  let lib = {|rel base = {1, 2}|} in
  let config = Interp.default_config () in
  let r =
    let compiled =
      Session.compile ~load:(fun f -> if f = "lib.scl" then Some lib else None)
        {|import "lib.scl"
rel doubled(x + x) = base(x)
query doubled|}
    in
    Session.run ~config ~provenance:(Registry.create Registry.Boolean) compiled ()
  in
  check slist "imported facts" [ "(2)"; "(4)" ] (rows_no_prob r "doubled")

let suite =
  [
    ("single fact", test_single_fact);
    ("fact set", test_fact_set);
    ("fact tuples", test_fact_tuples);
    ("conjunction join", test_conjunction_join);
    ("disjunction two rules", test_disjunction_two_rules);
    ("logical connectives", test_logical_connectives);
    ("implies in body", test_implies_in_body);
    ("wildcards", test_wildcards);
    ("constants", test_constants);
    ("typed const wraps", test_typed_const_and_cast);
    ("arithmetic in head", test_arithmetic_in_head);
    ("comparison result", test_comparison_result);
    ("division failure drops fact", test_division_failure_drops_fact);
    ("$string_concat", test_string_concat_ff);
    ("expression in body atom", test_ff_in_body_atom);
    ("cast expression", test_cast_expr);
    ("if then else", test_if_then_else);
    ("string constant select", test_string_comparison_select);
    ("NaN dropped", test_nan_dropped);
    ("transitive closure", test_transitive_closure);
    ("mutual recursion", test_mutual_recursion);
    ("kinship composition recursion", test_kinship_composition_recursion);
    ("stratified negation", test_stratified_negation);
    ("nullary negation", test_negation_with_constant);
    ("unstratified rejected", test_negation_rejects_unstratified);
    ("negation across strata", test_negation_in_recursion_across_strata);
    ("count", test_count);
    ("count group-by where", test_count_group_by_where);
    ("sum and prod", test_sum_and_prod);
    ("min max", test_min_max);
    ("argmax", test_argmax);
    ("exists", test_exists);
    ("forall satisfied", test_forall_integrity_constraint);
    ("forall violated", test_forall_violated);
    ("implicit group-by", test_implicit_group_by);
    ("aggregate through recursion rejected", test_aggregate_rejects_recursion);
    ("count over empty", test_count_over_empty);
    ("top-1 sampler", test_top_1_sampler);
    ("top-k group-by", test_top_k_group_by);
    ("uniform sampler", test_uniform_sampler_count);
    ("categorical sampler", test_categorical_sampler_count);
    ("sampler determinism", test_sampler_determinism);
    ("probabilistic facts", test_probabilistic_facts);
    ("independent vs exclusive", test_independent_vs_exclusive);
    ("probabilistic rule", test_probabilistic_rule);
    ("noisy or", test_noisy_or_two_derivations);
    ("exact = top-k small", test_exact_matches_topk_on_small);
    ("max-min-prob semantics", test_mmp_semantics);
    ("probabilistic negation", test_probabilistic_negation);
    ("probabilistic count", test_probabilistic_count);
    ("range foreign predicate", test_range);
    ("range with negation", test_range_with_negation);
    ("string_chars", test_string_chars);
    ("unbound head var", test_unbound_head_var);
    ("arity mismatch", test_arity_mismatch);
    ("type mismatch", test_type_mismatch);
    ("parse error reported", test_parse_error_reported);
    ("unbound negated var", test_unbound_negated_var);
    ("query restricts outputs", test_query_restricts_outputs);
    ("import", test_import);
  ]
  |> List.map (fun (name, f) -> Alcotest.test_case name `Quick f)

(* ---- session robustness (appended) -------------------------------------------- *)

let test_unknown_output_relation () =
  let c = Session.compile {|rel p = {1}
query p|} in
  let r =
    Session.run ~provenance:(Registry.create Registry.Boolean) c ~outputs:[ "nonexistent" ] ()
  in
  check Alcotest.int "unknown relation is empty" 0 (List.length (Session.output r "nonexistent"))

let test_empty_program () =
  let r = run "" in
  check Alcotest.int "no outputs" 0 (List.length r.Session.outputs)

let test_facts_only_program () =
  let r = run {|rel p = {1, 2, 3}
query p|} in
  check Alcotest.int "EDB-only query" 3 (List.length (rows_no_prob r "p"))

let test_rule_overrides_nothing () =
  (* facts and rules can coexist on the same predicate (Rule-1/2/3 merge) *)
  let r = run {|rel p = {1}
rel q = {10}
rel p(x) = q(x)
query p|} in
  check slist "merged" [ "(1)"; "(10)" ] (rows_no_prob r "p")

let test_zero_probability_fact_discarded () =
  (* early removal is per-provenance: max-min-prob discards zero tags
     eagerly; formula provenances keep the variable (its recovered
     probability is 0, and a gradient can revive it during training) *)
  let src = {|type p(i32)
rel q(x) = p(x)
query q|} in
  let facts =
    [ ("p", [ (Provenance.Input.prob 0.0, Tuple.of_list [ Value.int Value.I32 1 ]) ]) ]
  in
  let r_mmp = run ~provenance:Registry.Max_min_prob ~facts src in
  check Alcotest.int "mmp discards" 0 (List.length (rows_no_prob r_mmp "q"));
  let r_tkp = run ~provenance:(Registry.Top_k_proofs 5) ~facts src in
  check (Alcotest.float 1e-9) "formula keeps at prob 0" 0.0
    (Session.prob_of r_tkp "q" (Tuple.of_list [ Value.int Value.I32 1 ]))

let test_self_join () =
  let r = run {|type e(i32, i32)
rel e = {(0, 1), (1, 2)}
rel two_hop(a, c) = e(a, b), e(b, c)
query two_hop|} in
  check slist "self join" [ "(0, 2)" ] (rows_no_prob r "two_hop")

let test_repeated_variable_in_atom () =
  let r = run {|type e(i32, i32)
rel e = {(0, 0), (0, 1), (2, 2)}
rel loop(x) = e(x, x)
query loop|} in
  check slist "diagonal" [ "(0)"; "(2)" ] (rows_no_prob r "loop")

let test_long_chain_recursion () =
  (* 60-node chain: stresses fixpoint depth *)
  let facts =
    [
      ( "e",
        List.init 60 (fun i ->
            ( Provenance.Input.none,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let r =
    run ~facts {|type e(i32, i32)
rel reach(0)
rel reach(y) = reach(x), e(x, y)
query reach|}
  in
  check Alcotest.int "full chain reached" 61 (List.length (rows_no_prob r "reach"))

let suite =
  suite
  @ List.map
      (fun (n, f) -> Alcotest.test_case n `Quick f)
      [
        ("unknown output relation", test_unknown_output_relation);
        ("empty program", test_empty_program);
        ("facts-only program", test_facts_only_program);
        ("facts and rules merge", test_rule_overrides_nothing);
        ("zero-probability early removal", test_zero_probability_fact_discarded);
        ("self join", test_self_join);
        ("repeated variable in atom", test_repeated_variable_in_atom);
        ("long chain recursion", test_long_chain_recursion);
      ]

(* ---- integer literals past the i32 range -------------------------------------- *)

(* A literal is built at the type it is elaborated to: in an i64 column it
   keeps its value, in an i32 column it wraps as an i32 does. *)
let test_wide_literal_fact () =
  let r = run {|type e(i64)
rel e = {1099511627776}
query e|} in
  check slist "i64 column" [ "(1099511627776)" ] (rows_no_prob r "e");
  let r = run {|type e(i32)
rel e = {4294967297}
query e|} in
  check slist "i32 column wraps" [ "(1)" ] (rows_no_prob r "e")

let test_wide_literal_comparison () =
  let r =
    run {|type e(i64)
rel e = {1, 2, 4294967297}
rel big(x) = e(x), x < 4294967296
query big|}
  in
  check slist "below 2^32" [ "(1)"; "(2)" ] (rows_no_prob r "big")

let test_wide_literal_head_arithmetic () =
  let r = run {|type e(i64)
rel e = {1, 2}
rel big(x + 4294967296) = e(x)
query big|} in
  check slist "shifted past 2^32" [ "(4294967297)"; "(4294967298)" ] (rows_no_prob r "big")

(* A serve [assert] line carries its integers untyped; one past the i32
   range must reach an i64 column intact. *)
let test_wide_literal_assert () =
  let module Incr = Scallop_incr.Incr in
  let t = Incr.open_session ~spec:Registry.Boolean "type e(i64)\nquery e" in
  let prob, pred, tuple = Scallop_serve.Protocol.parse_fact_atom "e(1099511627776)" in
  Incr.assert_fact t ~pred ?prob tuple;
  let r = Incr.query t in
  Incr.close t;
  check slist "asserted" [ "(1099511627776)" ] (rows_no_prob r "e")

(* 0 and 1 are probabilities: only a tag outside [0, 1] is an error. *)
let test_tags_at_bounds () =
  let r =
    run ~provenance:Registry.Add_mult_prob
      "rel e = {0::(1, 2), 1::(2, 3), 1.0::(3, 1), 0.0::(1, 1)}\nrel 1::p(a) = e(a, _)\nquery p"
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "p(2)" (Some 1.0) (prob_of r "p" "(2)");
  check (Alcotest.option (Alcotest.float 1e-9)) "p(3)" (Some 1.0) (prob_of r "p" "(3)")

let suite =
  suite
  @ List.map
      (fun (n, f) -> Alcotest.test_case n `Quick f)
      [
        ("i64 literal fact", test_wide_literal_fact);
        ("i64 literal comparison", test_wide_literal_comparison);
        ("i64 literal in head arithmetic", test_wide_literal_head_arithmetic);
        ("i64 literal asserted through serve", test_wide_literal_assert);
        ("tags at the bounds 0 and 1", test_tags_at_bounds);
      ]
