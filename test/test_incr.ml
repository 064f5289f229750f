(** Stateful sessions ({!Scallop_incr.Incr}): bit-identity of every query
    against the cold-run differential oracle, the clean-repeat cache,
    budget-abort retries, plan-cache sharing, and protocol errors. *)

open Scallop_core
module Incr = Scallop_incr.Incr

let tc_src =
  "type edge(i32, i32)\n\
   rel path(a, b) = edge(a, b)\n\
   rel path(a, c) = path(a, b), edge(b, c)\n\
   query path"

let i32 n = Value.int Value.I32 n
let pair a b = Tuple.of_list [ i32 a; i32 b ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* Bit-exact equality of results: same relations, same tuples, same output
   arms, floats compared with Float.equal (no tolerance). *)
let output_equal (a : Provenance.Output.t) (b : Provenance.Output.t) =
  match (a, b) with
  | Provenance.Output.O_unit, Provenance.Output.O_unit -> true
  | O_bool x, O_bool y -> Bool.equal x y
  | O_nat x, O_nat y -> Int.equal x y
  | O_prob x, O_prob y -> Float.equal x y
  | a, b -> a = b

let results_equal (a : Session.result) (b : Session.result) =
  List.length a.Session.outputs = List.length b.Session.outputs
  && List.for_all2
       (fun (pa, la) (pb, lb) ->
         String.equal pa pb
         && List.length la = List.length lb
         && List.for_all2
              (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && output_equal oa ob)
              la lb)
       a.Session.outputs b.Session.outputs

(* Every query must be bit-identical to a cold run on the same EDB. *)
let check_oracle what t =
  let incr = Incr.query t in
  let cold = Incr.run_cold t in
  if not (results_equal incr cold) then
    Alcotest.failf "%s: incremental result diverges from cold run" what

let full_runs t = (Incr.stats t).Incr.full_runs

let invalid_input_of f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_input"
  | exception Session.Error (Exec_error.Invalid_input _ as e) -> Session.error_string e
  | exception Session.Error e ->
      Alcotest.failf "expected Invalid_input, got %s" (Session.error_string e)

(* ---- additions ------------------------------------------------------------- *)

let test_tc_additive_boolean () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  check_oracle "empty EDB" t;
  List.iteri
    (fun i (a, b) ->
      Incr.assert_fact t ~pred:"edge" (pair a b);
      check_oracle (Fmt.str "after edge %d" i) t)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 2) ]

let test_tc_additive_minmaxprob () =
  let t = Incr.open_session ~spec:Registry.Max_min_prob tc_src in
  Incr.assert_fact t ~pred:"edge" ~prob:0.9 (pair 0 1);
  Incr.assert_fact t ~pred:"edge" ~prob:0.8 (pair 1 2);
  check_oracle "initial" t;
  Incr.assert_fact t ~pred:"edge" ~prob:0.7 (pair 2 0);
  check_oracle "after closing the cycle" t;
  (* pure tag increase *)
  Incr.assert_fact t ~pred:"edge" ~prob:0.95 (pair 1 2);
  check_oracle "after prob raise" t

(* ---- retractions and weakenings ----------------------------------------------- *)

let test_tc_retract () =
  let t = Incr.open_session ~spec:Registry.Max_min_prob tc_src in
  List.iter
    (fun (a, b, p) -> Incr.assert_fact t ~pred:"edge" ~prob:p (pair a b))
    [ (0, 1, 0.9); (1, 2, 0.8); (2, 3, 0.7); (3, 0, 0.6) ];
  check_oracle "initial cycle" t;
  Incr.retract_fact t ~pred:"edge" (pair 1 2);
  check_oracle "after retract" t;
  (* tag decrease *)
  Incr.assert_fact t ~pred:"edge" ~prob:0.5 (pair 0 1);
  check_oracle "after prob lowering" t

let test_retract_then_reassert () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  Incr.assert_fact t ~pred:"edge" (pair 0 1);
  check_oracle "one edge" t;
  (* retract + re-assert between queries nets out to no change, but the
     next query is still dirty: exactly one run *)
  let runs = full_runs t in
  Incr.retract_fact t ~pred:"edge" (pair 0 1);
  Incr.assert_fact t ~pred:"edge" (pair 0 1);
  check_oracle "net no-op batch" t;
  Alcotest.(check int) "one run" (runs + 1) (full_runs t);
  Incr.retract_fact t ~pred:"edge" (pair 0 1);
  check_oracle "empty again" t

(* ---- non-monotone readers and head overlays ------------------------------------ *)

let test_negation_reader () =
  let src =
    "type e(i32, i32)\n\
     type f(i32, i32)\n\
     rel keep(x, y) = e(x, y), not f(x, y)\n\
     query keep"
  in
  let t = Incr.open_session ~spec:Registry.Boolean src in
  Incr.assert_fact t ~pred:"e" (pair 0 1);
  Incr.assert_fact t ~pred:"e" (pair 1 2);
  check_oracle "before negative fact" t;
  (* f is read under negation: additions to it are non-monotone *)
  Incr.assert_fact t ~pred:"f" (pair 0 1);
  check_oracle "after negative fact" t;
  Incr.retract_fact t ~pred:"f" (pair 0 1);
  check_oracle "after negative retraction" t

let test_aggregate_reader () =
  let src =
    "type e(i32, i32)\nrel total(n) = n := count(x, y: e(x, y))\nquery total"
  in
  let t = Incr.open_session ~spec:Registry.Boolean src in
  Incr.assert_fact t ~pred:"e" (pair 0 1);
  check_oracle "count 1" t;
  Incr.assert_fact t ~pred:"e" (pair 1 2);
  check_oracle "count 2" t;
  Incr.retract_fact t ~pred:"e" (pair 0 1);
  check_oracle "count 1 again" t

let test_assert_into_idb_head () =
  (* asserting directly into a predicate that also has rules changes the
     base relation its stratum ⊕-merges into *)
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  Incr.assert_fact t ~pred:"edge" (pair 0 1);
  check_oracle "edge only" t;
  Incr.assert_fact t ~pred:"path" (pair 7 8);
  check_oracle "extra path fact" t;
  Incr.retract_fact t ~pred:"path" (pair 7 8);
  check_oracle "path fact retracted" t

let test_static_and_dynamic_overlap () =
  (* static program facts ⊕-merge with overlay facts on the same tuple *)
  let src =
    "type edge(i32, i32)\n\
     rel edge = {0.40::(0, 1), 0.90::(1, 2)}\n\
     rel path(a, b) = edge(a, b)\n\
     rel path(a, c) = path(a, b), edge(b, c)\n\
     query path"
  in
  let t = Incr.open_session ~spec:Registry.Max_min_prob src in
  check_oracle "static only" t;
  Incr.assert_fact t ~pred:"edge" ~prob:0.8 (pair 0 1);
  check_oracle "overlay raises a static fact" t;
  Incr.retract_fact t ~pred:"edge" (pair 0 1);
  check_oracle "back to the static tag" t;
  (* the static fact itself is not retractable: it was never asserted *)
  let msg = invalid_input_of (fun () -> Incr.retract_fact t ~pred:"edge" (pair 1 2)) in
  Alcotest.(check bool) "mentions never asserted" true
    (contains msg "never asserted")

(* ---- independent strata ------------------------------------------------------- *)

let two_outputs_src =
  "type e0(i32, i32)\n\
   type e1(i32, i32)\n\
   rel a(x, y) = e0(x, y)\n\
   rel b(x, y) = e1(x, y)\n\
   query a\n\
   query b"

let test_stratum_reuse () =
  let t = Incr.open_session ~spec:Registry.Boolean two_outputs_src in
  Incr.assert_fact t ~pred:"e0" (pair 0 1);
  Incr.assert_fact t ~pred:"e1" (pair 2 3);
  check_oracle "initial" t;
  Incr.assert_fact t ~pred:"e1" (pair 3 4);
  check_oracle "only e1 changed" t

(* ---- clean-repeat cache -------------------------------------------------------- *)

(* Updates between oracle checks, then a clean repeat query: served from
   the cached result, without a run. *)
let check_clean_repeat spec =
  let name = Registry.spec_name spec in
  let t = Incr.open_session ~spec tc_src in
  List.iter
    (fun (a, b, p) -> Incr.assert_fact t ~pred:"edge" ~prob:p (pair a b))
    [ (0, 1, 0.9); (1, 2, 0.8); (2, 0, 0.7); (0, 2, 0.6) ];
  check_oracle (name ^ " initial") t;
  Incr.retract_fact t ~pred:"edge" (pair 2 0);
  check_oracle (name ^ " after retract") t;
  Incr.assert_fact t ~pred:"edge" ~prob:0.95 (pair 2 3);
  check_oracle (name ^ " after growth") t;
  let full_before = full_runs t in
  let r1 = Incr.query t in
  let r2 = Incr.query t in
  Alcotest.(check bool) (name ^ ": repeat query identical") true (results_equal r1 r2);
  Alcotest.(check int) (name ^ ": repeat query did not re-run") 0 (full_runs t - full_before)

let test_recompute_topkproofs () =
  List.iter check_clean_repeat
    [ Registry.Top_k_proofs 3; Registry.Boolean; Registry.Max_min_prob ]

(* The cache is keyed on the [outputs] list too: asking for other
   relations runs again, and so does going back. *)
let test_outputs_change_reruns () =
  let t = Incr.open_session ~spec:Registry.Max_min_prob two_outputs_src in
  Incr.assert_fact t ~pred:"e0" ~prob:0.9 (pair 0 1);
  Incr.assert_fact t ~pred:"e1" ~prob:0.8 (pair 2 3);
  let all = Incr.query t in
  let runs = full_runs t in
  let only_a = Incr.query ~outputs:[ "a" ] t in
  Alcotest.(check int) "other outputs run again" (runs + 1) (full_runs t);
  if not (results_equal only_a (Incr.run_cold ~outputs:[ "a" ] t)) then
    Alcotest.fail "outputs [a] diverge from the cold run";
  Alcotest.(check (list string)) "only a" [ "a" ] (List.map fst only_a.Session.outputs);
  ignore (Incr.query ~outputs:[ "a" ] t);
  Alcotest.(check int) "the same outputs repeat clean" (runs + 1) (full_runs t);
  let again = Incr.query t in
  Alcotest.(check int) "the default outputs run again" (runs + 2) (full_runs t);
  Alcotest.(check bool) "same answer as before" true (results_equal all again)

(* ---- budget aborts leave state intact ----------------------------------------- *)

let test_budget_abort_keeps_pending () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  Incr.assert_fact t ~pred:"edge" (pair 0 1);
  (* a first answer fills the clean-repeat cache *)
  check_oracle "before the update" t;
  for i = 1 to 10 do
    Incr.assert_fact t ~pred:"edge" (pair i (i + 1))
  done;
  (match Incr.query ~budget:(Budget.make ~max_iterations:1 ()) t with
  | _ -> Alcotest.fail "expected a budget abort"
  | exception Session.Error (Exec_error.Budget_exceeded _) -> ());
  (* the abort left the session dirty: the retry runs cold rather than
     returning the cached answer from before the update *)
  let runs = full_runs t in
  check_oracle "after retry" t;
  Alcotest.(check int) "the retry ran" (runs + 1) (full_runs t)

(* ---- protocol errors ----------------------------------------------------------- *)

let test_retract_never_asserted () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  let msg = invalid_input_of (fun () -> Incr.retract_fact t ~pred:"edge" (pair 4 5)) in
  Alcotest.(check bool) "names the fact" true
    (contains msg "never asserted")

let test_closed_session () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  Incr.close t;
  Alcotest.(check bool) "reports closed" true (Incr.is_closed t);
  ignore (invalid_input_of (fun () -> Incr.query t));
  ignore (invalid_input_of (fun () -> Incr.assert_fact t ~pred:"edge" (pair 0 1)));
  ignore (invalid_input_of (fun () -> Incr.close t))

let test_unknown_relation () =
  let t = Incr.open_session ~spec:Registry.Boolean tc_src in
  ignore (invalid_input_of (fun () -> Incr.assert_fact t ~pred:"nope" (pair 0 1)))

let test_hash_mismatch () =
  let msg =
    invalid_input_of (fun () ->
        Incr.open_session ~spec:Registry.Boolean ~expect_hash:"deadbeefdeadbeef" tc_src)
  in
  Alcotest.(check bool) "mentions hash mismatch" true
    (contains msg "hash mismatch")

(* ---- shared plan cache ---------------------------------------------------------- *)

let test_plan_sharing () =
  Session.clear_plan_cache ();
  let t1 = Incr.open_session ~spec:Registry.Boolean tc_src in
  let t2 = Incr.open_session ~spec:Registry.Max_min_prob tc_src in
  Alcotest.(check string) "same program hash" (Incr.program_hash t1) (Incr.program_hash t2);
  let s = Session.plan_cache_stats () in
  Alcotest.(check int) "one cached plan" 1 s.Session.entries;
  Alcotest.(check bool) "second open hit the cache" true (s.Session.hits >= 1);
  (* tenants are isolated: t1's facts never leak into t2 *)
  Incr.assert_fact t1 ~pred:"edge" (pair 0 1);
  check_oracle "tenant 1" t1;
  check_oracle "tenant 2 still empty" t2;
  let r2 = Incr.query t2 in
  Alcotest.(check int) "tenant 2 sees no tuples" 0
    (List.length (List.assoc "path" r2.Session.outputs))

let suite =
  [
    Alcotest.test_case "tc additive boolean" `Quick test_tc_additive_boolean;
    Alcotest.test_case "tc additive minmaxprob" `Quick test_tc_additive_minmaxprob;
    Alcotest.test_case "tc retract" `Quick test_tc_retract;
    Alcotest.test_case "retract then re-assert" `Quick test_retract_then_reassert;
    Alcotest.test_case "negation reader" `Quick test_negation_reader;
    Alcotest.test_case "aggregate reader" `Quick test_aggregate_reader;
    Alcotest.test_case "assert into idb head" `Quick test_assert_into_idb_head;
    Alcotest.test_case "static and dynamic overlap" `Quick test_static_and_dynamic_overlap;
    Alcotest.test_case "stratum reuse" `Quick test_stratum_reuse;
    Alcotest.test_case "recompute topkproofs" `Quick test_recompute_topkproofs;
    Alcotest.test_case "other outputs run again" `Quick test_outputs_change_reruns;
    Alcotest.test_case "budget abort keeps pending" `Quick test_budget_abort_keeps_pending;
    Alcotest.test_case "retract never asserted" `Quick test_retract_never_asserted;
    Alcotest.test_case "closed session" `Quick test_closed_session;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "hash mismatch" `Quick test_hash_mismatch;
    Alcotest.test_case "plan sharing" `Quick test_plan_sharing;
  ]
