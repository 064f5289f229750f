(** Runtime-level tests: the executor's semi-naive evaluation against the
    naive lfp° of the tree-walker oracle (property-based on random edge
    relations), saturation behaviour (the Fig. 10 story: richer
    provenances saturate no earlier than untagged semantics), iteration
    limits, and delta-rewriting structure. *)

open Scallop_core
module Tree_walker = Scallop_fuzz.Tree_walker

let check = Alcotest.check

let tc_src =
  {|type e(i32, i32)
rel path(a, b) = e(a, b)
rel path(a, c) = path(a, b), e(b, c)
query path|}

let random_edges seed n max_node =
  let rng = Scallop_utils.Rng.create seed in
  [
    ( "e",
      List.init n (fun _ ->
          ( Provenance.Input.prob (Scallop_utils.Rng.float rng),
            Tuple.of_list
              [
                Value.int Value.I32 (Scallop_utils.Rng.int rng max_node);
                Value.int Value.I32 (Scallop_utils.Rng.int rng max_node);
              ] )) );
  ]

let rows (r : Session.result) =
  List.concat_map
    (fun (pred, rows) ->
      List.map (fun (t, o) -> Fmt.str "%s%a=%.6f" pred Tuple.pp t (Provenance.Output.prob o)) rows)
    r.Session.outputs
  |> List.sort compare

(* A run on the executor, the one evaluation mode production has. *)
let run_rows ~provenance ?(stats = None) facts src =
  rows
    (Session.interpret
       ~config:{ (Interp.default_config ()) with Interp.stats }
       ~provenance:(Registry.create provenance) ~facts src)

(* The same program on the uncached tree-walker oracle: semi-naive, or with
   [~naive:true] the naive lfp° of Fig. 24 that defines the semantics. *)
let oracle_rows ?naive ~provenance facts src =
  rows
    (Tree_walker.run ?naive ~provenance:(Registry.create provenance) (Session.compile src)
       ~facts ())

(* Semi-naive must agree exactly with naive under exact (untruncated)
   provenances; under top-k it may differ slightly because truncation is
   order-dependent, so those are excluded by design (see DESIGN.md). *)
let test_semi_naive_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"semi-naive ≡ naive (exact provenances)"
       QCheck.(pair (int_range 0 1000) (int_range 5 25))
       (fun (seed, n) ->
         let facts = random_edges seed n 8 in
         List.for_all
           (fun provenance ->
             run_rows ~provenance facts tc_src = oracle_rows ~naive:true ~provenance facts tc_src)
           [ Registry.Boolean; Registry.Max_min_prob; Registry.Exact_prob ]))

let test_semi_naive_equivalence_negation () =
  let src =
    {|type e(i32, i32), blocked(i32)
rel reach(0)
rel reach(y) = reach(x), e(x, y), not blocked(y)
query reach|}
  in
  for seed = 0 to 10 do
    let facts =
      random_edges seed 15 6
      @ [ ("blocked", [ (Provenance.Input.prob 0.5, Tuple.of_list [ Value.int Value.I32 3 ]) ]) ]
    in
    check
      Alcotest.(list string)
      "negation under recursion"
      (oracle_rows ~naive:true ~provenance:Registry.Max_min_prob facts src)
      (run_rows ~provenance:Registry.Max_min_prob facts src)
  done

let iterations ~provenance facts src =
  let stats = Interp.empty_stats () in
  ignore (run_rows ~provenance ~stats:(Some stats) facts src);
  stats.Interp.fixpoint_iterations

(* Fig. 10: under max-min-prob the fixed point keeps exploring longer
   reasoning chains after untagged semantics would have stopped — the
   database saturates later (7 vs 4 iterations in the paper's example,
   under naive evaluation).  The executor's semi-naive rounds on this
   graph are 5 and 5: the ordering holds, not strictly. *)
let test_fig10_saturation_ordering () =
  (* line graph with a low-probability shortcut: mmp keeps improving tags *)
  let facts =
    [
      ( "e",
        [
          (Provenance.Input.prob 0.1, Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 4 ]);
          (Provenance.Input.prob 0.9, Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 1 ]);
          (Provenance.Input.prob 0.9, Tuple.of_list [ Value.int Value.I32 1; Value.int Value.I32 2 ]);
          (Provenance.Input.prob 0.9, Tuple.of_list [ Value.int Value.I32 2; Value.int Value.I32 3 ]);
          (Provenance.Input.prob 0.9, Tuple.of_list [ Value.int Value.I32 3; Value.int Value.I32 4 ]);
        ] );
    ]
  in
  let bool_iters = iterations ~provenance:Registry.Boolean facts tc_src in
  let mmp_iters = iterations ~provenance:Registry.Max_min_prob facts tc_src in
  if mmp_iters < bool_iters then
    Alcotest.failf "mmp should saturate no earlier than boolean (%d vs %d)" mmp_iters bool_iters;
  (* and the mmp tag of the 0→4 path must reflect the better (longer) chain *)
  let r =
    Session.interpret
      ~provenance:(Registry.create Registry.Max_min_prob)
      ~facts tc_src
  in
  let p =
    Session.prob_of r "path" (Tuple.of_list [ Value.int Value.I32 0; Value.int Value.I32 4 ])
  in
  check (Alcotest.float 1e-9) "best chain wins over shortcut" 0.9 p

let test_iteration_limit () =
  (* natural (counting) tags on a cycle never saturate: must hit the limit *)
  let src = {|type e(i32, i32)
rel e = {(0, 1), (1, 0)}
rel path(a, b) = e(a, b)
rel path(a, c) = path(a, b), e(b, c)
query path|} in
  let config =
    { (Interp.default_config ()) with Interp.budget = Budget.make ~max_iterations:20 () }
  in
  match Session.interpret ~config ~provenance:(Registry.create Registry.Natural) src with
  | exception Session.Error (Exec_error.Budget_exceeded { kind = Exec_error.Iterations; _ })
    ->
      ()
  | exception Session.Error e ->
      Alcotest.failf "expected an iteration-limit error, got: %s" (Session.error_string e)
  | _ -> Alcotest.fail "expected iteration limit error"

let test_damp_terminates_on_recursion () =
  (* diff-add-mult-prob's always-true tag saturation (Sec. 4.5.2) means
     iteration stops as soon as the tuple set stops growing — bounded by the
     graph diameter even on cyclic graphs where tags would otherwise keep
     drifting. *)
  let facts = random_edges 3 20 6 in
  let rounds = iterations ~provenance:Registry.Diff_add_mult_prob facts tc_src in
  if rounds > 8 then
    Alcotest.failf "damp should stop at the tuple-set fixpoint (took %d rounds)" rounds

let test_delta_variants_structure () =
  (* Δ(path ⋈ e) for stratum {path} replaces only the path leaf; the spine
     is rebuilt but the off-spine [e] leaf is shared with the base plan *)
  let body =
    Plan.of_expr ~heads:[ "path" ]
      (Ram.Join { lkeys = [ 1 ]; rkeys = [ 0 ]; left = Ram.Pred "path"; right = Ram.Pred "e" })
  in
  check Alcotest.bool "recursive body is variant" false body.Plan.invariant;
  match Plan.delta_variants ~heads:[ "path" ] body with
  | [ { Plan.desc = Plan.Join { left; right; _ }; _ } ] -> (
      match (left.Plan.desc, right.Plan.desc) with
      | Plan.Pred d, Plan.Pred "e" ->
          check Alcotest.bool "mangled delta name" true (d <> "path" && String.length d > 5);
          (match body.Plan.desc with
          | Plan.Join { right = base_right; _ } ->
              check Alcotest.bool "off-spine subtree shared" true (base_right == right);
              check Alcotest.bool "e leaf is invariant" true right.Plan.invariant
          | _ -> Alcotest.fail "base plan shape")
      | _ -> Alcotest.fail "unexpected delta leaf shape")
  | l -> Alcotest.failf "expected one delta variant, got %d" (List.length l)

let test_delta_variants_skip_aggregate () =
  let body =
    Plan.of_expr ~heads:[ "p" ]
      (Ram.Aggregate
         {
           agg = Ram.Count;
           key_len = 0;
           arg_len = 0;
           result_ty = None;
           group = Ram.No_group;
           body = Ram.Pred "q";
         })
  in
  check Alcotest.int "aggregates carry no delta" 0
    (List.length (Plan.delta_variants ~heads:[ "p" ] body))

let test_plan_invariance_and_ids () =
  (* samplers are never invariant; ids are unique in pre-order *)
  let e =
    Ram.Union
      ( Ram.Sample
          { sampler = Ram.Uniform 2; key_len = 0; group = Ram.No_group; body = Ram.Pred "q" },
        Ram.Pred "q" )
  in
  let p = Plan.of_expr ~heads:[] e in
  check Alcotest.bool "sampler poisons invariance" false p.Plan.invariant;
  match p.Plan.desc with
  | Plan.Union (a, b) ->
      check Alcotest.bool "sampler node variant" false a.Plan.invariant;
      check Alcotest.bool "plain pred invariant" true b.Plan.invariant;
      let ids = [ p.Plan.pid; a.Plan.pid; b.Plan.pid ] in
      check Alcotest.int "distinct ids" 3 (List.length (List.sort_uniq compare ids))
  | _ -> Alcotest.fail "plan shape"

(* ---- naive ≡ semi-naive ≡ cached on recursion + negation + aggregation ---- *)

let negagg_src =
  {|type e(i32, i32), blocked(i32)
rel path(a, b) = e(a, b), not blocked(b)
rel path(a, c) = path(a, b), e(b, c), not blocked(c)
rel reach_count(a, n) = n := count(b: path(a, b))
query path
query reach_count|}

(* acyclic (a < b) edge sets keep every provenance's fixpoint finite *)
let random_dag_facts ?(unit_prob = false) seed n max_node =
  let rng = Scallop_utils.Rng.create seed in
  let prob () = if unit_prob then 1.0 else 0.5 +. (0.5 *. Scallop_utils.Rng.float rng) in
  [
    ( "e",
      List.init n (fun _ ->
          let a = Scallop_utils.Rng.int rng max_node in
          let b = a + 1 + Scallop_utils.Rng.int rng (max_node - a) in
          ( Provenance.Input.prob (prob ()),
            Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] )) );
    ("blocked", [ (Provenance.Input.prob (prob ()), Tuple.of_list [ Value.int Value.I32 2 ]) ]);
  ]

let path_support rows =
  List.filter_map
    (fun s ->
      if String.length s >= 4 && String.sub s 0 4 = "path" then
        Some (String.sub s 0 (String.rindex s '='))
      else None)
    rows
  |> List.sort_uniq compare

(* The executor (semi-naive, cached) must produce the recovered outputs of
   the oracle's naive lfp° whenever ⊕ is idempotent (boolean, mmp) — naive
   re-derivation then merges to the same tag.  addmultprob's ⊕ is a capped
   sum and its saturation check ignores tags, so naive re-derivation
   inflates tags toward the cap; exact equality is only guaranteed at the
   cap (unit probabilities), and with fractional tags the two agree on the
   derived tuple set of the recursive relation (aggregate outputs can then
   differ through ⊖ of drifted tags — same class of caveat as top-k
   truncation, see DESIGN.md).  Against the oracle's uncached semi-naive
   run the executor must be identical under every provenance. *)
let test_equivalence_negation_aggregation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"naive ≡ semi-naive ≡ cached (negation + aggregation)"
       QCheck.(pair (int_range 0 1000) (int_range 5 20))
       (fun (seed, n) ->
         let facts = random_dag_facts seed n 8 in
         let unit_facts = random_dag_facts ~unit_prob:true seed n 8 in
         let addmult = Registry.Add_mult_prob and topk = Registry.Top_k_proofs 3 in
         List.for_all
           (fun provenance ->
             let semi = run_rows ~provenance facts negagg_src in
             semi = oracle_rows ~naive:true ~provenance facts negagg_src
             && semi = oracle_rows ~provenance facts negagg_src)
           [ Registry.Boolean; Registry.Max_min_prob ]
         && run_rows ~provenance:addmult unit_facts negagg_src
            = oracle_rows ~naive:true ~provenance:addmult unit_facts negagg_src
         && (let semi = run_rows ~provenance:addmult facts negagg_src in
             semi = oracle_rows ~provenance:addmult facts negagg_src
             && path_support semi
                = path_support (oracle_rows ~naive:true ~provenance:addmult facts negagg_src))
         && run_rows ~provenance:topk facts negagg_src = oracle_rows ~provenance:topk facts negagg_src))

let test_profiler_populates () =
  let stats = Interp.empty_stats () in
  let config = { (Interp.default_config ()) with Interp.stats = Some stats } in
  let compiled = Session.compile negagg_src in
  let result =
    Session.run ~config ~provenance:(Registry.create Registry.Boolean) compiled
      ~facts:(random_dag_facts 7 15 8) ()
  in
  check Alcotest.bool "stats returned in result" true
    (match result.Session.stats with Some s -> s == stats | None -> false);
  check Alcotest.bool "fixpoint iterations counted" true (stats.Interp.fixpoint_iterations > 0);
  check Alcotest.bool "node stats recorded" true (Hashtbl.length stats.Interp.node_stats > 0);
  Hashtbl.iter
    (fun pid st ->
      if pid < 0 || pid >= compiled.Session.plan.Plan.node_count then
        Alcotest.failf "stat recorded for unknown node id %d" pid;
      if st.Interp.evals <= 0 then Alcotest.failf "node %d recorded without evaluations" pid;
      if st.Interp.seconds < 0.0 then Alcotest.failf "negative wall time on node %d" pid)
    stats.Interp.node_stats;
  (match stats.Interp.stratum_traces with
  | [] -> Alcotest.fail "no stratum traces"
  | traces ->
      let total = List.fold_left (fun acc tr -> acc + tr.Interp.iterations) 0 traces in
      check Alcotest.int "trace iterations sum to total" stats.Interp.fixpoint_iterations total;
      check Alcotest.bool "some stratum is recursive (multi-iteration)" true
        (List.exists (fun tr -> tr.Interp.iterations > 1) traces));
  (* the profile table renders without raising *)
  let table = Fmt.str "%a" (Interp.pp_profile compiled.Session.plan) stats in
  check Alcotest.bool "profile table mentions nodes" true
    (String.length table > 0 && String.sub table 0 3 = "===")

let test_cache_hits_recorded () =
  (* recursive stratum with an invariant [e] leaf: the cached join index /
     sub-relation must be hit on iterations ≥ 2 *)
  let stats = Interp.empty_stats () in
  let config = { (Interp.default_config ()) with Interp.stats = Some stats } in
  let facts =
    [
      ( "e",
        List.init 30 (fun i ->
            ( Provenance.Input.none,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  ignore
    (Session.interpret ~config ~provenance:(Registry.create Registry.Boolean) ~facts tc_src);
  let hits = Hashtbl.fold (fun _ st acc -> acc + st.Interp.hits) stats.Interp.node_stats 0 in
  check Alcotest.bool "fixpoint cache hit at least once" true (hits > 0);
  check Alcotest.bool "cache table was built" true (stats.Interp.cache_tables > 0)

let test_no_cache_for_non_recursive () =
  (* Regression for the aggregation-sum-count benchmark: with caching
     enabled, a program whose strata are all non-recursive used to pay for
     building cache tables it could never hit (unique node ids mean nothing
     is looked up twice within a single pass).  Such strata must now skip
     cache construction entirely — the cache-stats counters stay at zero —
     while still computing the same answers as an uncached run. *)
  let src =
    {|type score(i32, i32)
rel total(s) = s := sum(v: score(_, v))
rel howmany(n) = n := count(k, v: score(k, v))
query total
query howmany|}
  in
  let facts =
    [
      ( "score",
        List.init 20 (fun i ->
            ( Provenance.Input.none,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i * 3 mod 17) ] )) );
    ]
  in
  let stats = Interp.empty_stats () in
  let cached = run_rows ~provenance:Registry.Boolean ~stats:(Some stats) facts src in
  let uncached = oracle_rows ~provenance:Registry.Boolean facts src in
  check (Alcotest.list Alcotest.string) "executor ≡ uncached oracle" uncached cached;
  check Alcotest.int "no cache table built for non-recursive strata" 0
    stats.Interp.cache_tables;
  let hits = Hashtbl.fold (fun _ st acc -> acc + st.Interp.hits) stats.Interp.node_stats 0 in
  check Alcotest.int "no cache hits recorded" 0 hits

let test_semi_naive_faster_iterations_equal () =
  (* semi-naive takes the naive lfp°'s rounds, with far less work per round.
     On an n-edge chain naive round k derives the paths of length k, and
     round n + 1 sees the database saturated: n + 1 rounds in all ([e] is
     an input relation, so [path] is the program's only stratum) *)
  List.iter
    (fun n ->
      let facts =
        [
          ( "e",
            List.init n (fun i ->
                ( Provenance.Input.none,
                  Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
        ]
      in
      check Alcotest.int
        (Fmt.str "rounds on a %d-edge chain" n)
        (n + 1)
        (iterations ~provenance:Registry.Boolean facts tc_src))
    [ 1; 5; 10 ]

let suite =
  [
    test_semi_naive_equivalence;
    Alcotest.test_case "semi-naive ≡ naive with negation" `Quick
      test_semi_naive_equivalence_negation;
    Alcotest.test_case "Fig. 10 saturation ordering" `Quick test_fig10_saturation_ordering;
    Alcotest.test_case "iteration limit enforced" `Quick test_iteration_limit;
    Alcotest.test_case "damp terminates immediately" `Quick test_damp_terminates_on_recursion;
    Alcotest.test_case "delta variants structure" `Quick test_delta_variants_structure;
    Alcotest.test_case "delta skips aggregates" `Quick test_delta_variants_skip_aggregate;
    Alcotest.test_case "plan invariance and ids" `Quick test_plan_invariance_and_ids;
    test_equivalence_negation_aggregation;
    Alcotest.test_case "profiler populates stats" `Quick test_profiler_populates;
    Alcotest.test_case "fixpoint cache records hits" `Quick test_cache_hits_recorded;
    Alcotest.test_case "no cache tables for non-recursive strata" `Quick
      test_no_cache_for_non_recursive;
    Alcotest.test_case "round counts agree" `Quick test_semi_naive_faster_iterations_equal;
  ]
