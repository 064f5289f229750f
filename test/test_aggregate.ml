(** Cross-validation of the polynomial aggregation schemes against the
    literal 2ⁿ possible-world semantics (paper Fig. 7, Aggregate), plus the
    O(n log n) max-min-prob counting algorithm of Appendix Alg. 1.

    Count/sum/exists use a world-exact dynamic program, so they are checked
    against brute force under both max-min-prob and sum-product tags.
    Min/max/argmin/argmax use Scallop's specialization t_u ⊗ ∏_{v≻u} ⊖t_v,
    which marginalizes smaller elements away — exact under sum-product
    (their on/off tags sum to 1) but an approximation under max-min, so the
    brute-force comparison runs under sum-product only. *)

open Scallop_core

let check = Alcotest.check

let i32 n = Value.int Value.I32 n

let rows_testable =
  Alcotest.(
    list (pair (testable Tuple.pp (fun a b -> Tuple.compare a b = 0)) (float 1e-9)))

let normalize items = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) items

(* Sum-product tags: ⊕ = +, ⊗ = ·, exact for disjoint-world accumulation. *)
module AggSP = Aggregate.Make (Prov_prob.Add_mult_prob)
module AggMMP = Aggregate.Make (Prov_discrete.Max_min_prob)

let distinct_items rng n =
  List.init n (fun i -> ([| i32 i |], 0.05 +. (0.9 *. Scallop_utils.Rng.float rng)))

let cross_check_sp name agg ~arg_len gen =
  Alcotest.test_case (name ^ " (sum-product)") `Quick (fun () ->
      let rng = Scallop_utils.Rng.create 51 in
      for _ = 1 to 50 do
        let items = gen rng in
        let fast = AggSP.run agg ~arg_len items |> normalize in
        let exact = AggSP.world_exact agg ~arg_len items |> normalize in
        check rows_testable name exact fast
      done)

let cross_check_mmp name agg ~arg_len gen =
  Alcotest.test_case (name ^ " (max-min)") `Quick (fun () ->
      let rng = Scallop_utils.Rng.create 53 in
      for _ = 1 to 50 do
        let items = gen rng in
        let fast = AggMMP.run agg ~arg_len items |> normalize in
        let exact = AggMMP.world_exact agg ~arg_len items |> normalize in
        check rows_testable name exact fast
      done)

let small gen_n rng = distinct_items rng (gen_n rng)
let n2_7 rng = 2 + Scallop_utils.Rng.int rng 6

let test_count_sp = cross_check_sp "count = world semantics" Ram.Count ~arg_len:0 (small n2_7)
let test_count_mmp = cross_check_mmp "count = world semantics" Ram.Count ~arg_len:0 (small n2_7)
let test_sum_sp = cross_check_sp "sum = world semantics" Ram.Sum ~arg_len:0 (small n2_7)
let test_max_sp = cross_check_sp "max = world semantics" Ram.Max ~arg_len:0 (small n2_7)
let test_min_sp = cross_check_sp "min = world semantics" Ram.Min ~arg_len:0 (small n2_7)

(* The exists specialization tags true with ⊕ᵢ tᵢ — the literal OR of the
   tags.  That is exact when tags are boolean formulas (WMC evaluates the
   OR), but an approximation in scalar algebras (clamped + overcounts,
   max under-counts the off-complements), so the brute-force comparison
   runs with formula tags and recovers probabilities through WMC. *)
let test_exists_formula_exact () =
  let rng = Scallop_utils.Rng.create 57 in
  for _ = 1 to 30 do
    let n = 1 + Scallop_utils.Rng.int rng 5 in
    let probs = List.init n (fun _ -> 0.1 +. (0.8 *. Scallop_utils.Rng.float rng)) in
    let module P =
      Prov_prob.Top_k_proofs
        (struct
          let k = 40
        end)
        ()
    in
    let module AggF = Aggregate.Make (P) in
    let items =
      List.mapi
        (fun i p ->
          let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
          ([| i32 i |], tag))
        probs
    in
    let via_formula =
      AggF.run Ram.Exists ~arg_len:0 items
      |> List.map (fun (t, tag) -> (t, Provenance.Output.prob (P.recover tag)))
      |> normalize
    in
    let p_none = List.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 probs in
    List.iter
      (fun (t, p) ->
        match Value.to_bool (Tuple.get t 0) with
        | Some true -> check (Alcotest.float 1e-6) "P(exists)" (1.0 -. p_none) p
        | Some false -> check (Alcotest.float 1e-6) "P(not exists)" p_none p
        | None -> Alcotest.fail "boolean expected")
      via_formula
  done

let test_argmax_vs_worlds_sp =
  cross_check_sp "argmax = world semantics" Ram.Argmax ~arg_len:1 (fun rng ->
      let n = 2 + Scallop_utils.Rng.int rng 4 in
      List.init n (fun i ->
          ( [| i32 i; i32 (Scallop_utils.Rng.int rng 10) |],
            0.05 +. (0.9 *. Scallop_utils.Rng.float rng) )))

let test_argmax_basic () =
  let items =
    [ ([| i32 0; i32 5 |], 0.9); ([| i32 1; i32 9 |], 0.8); ([| i32 2; i32 3 |], 0.7) ]
  in
  let out = AggMMP.run Ram.Argmax ~arg_len:1 items in
  match List.find_opt (fun (t, _) -> Value.equal (Tuple.get t 0) (i32 1)) out with
  | Some (_, tag) -> check (Alcotest.float 1e-9) "argmax tag" 0.8 tag
  | None -> Alcotest.fail "argmax missing best arg"

let test_count_dp_bounds () =
  let rng = Scallop_utils.Rng.create 3 in
  let items = distinct_items rng 8 in
  let out = AggMMP.run Ram.Count ~arg_len:0 items in
  List.iter
    (fun (t, tag) ->
      (match Value.to_int (Tuple.get t 0) with
      | Some n when n >= 0 && n <= 8 -> ()
      | _ -> Alcotest.fail "count out of range");
      if tag < 0.0 || tag > 1.0 then Alcotest.fail "tag out of [0,1]")
    out

let test_mmp_count_algorithm () =
  (* Appendix Alg. 1 agrees with the generic DP under max-min-prob *)
  let rng = Scallop_utils.Rng.create 77 in
  for _ = 1 to 50 do
    let n = 1 + Scallop_utils.Rng.int rng 7 in
    let tags = List.init n (fun _ -> Scallop_utils.Rng.float rng) in
    let fast = Aggregate.mmp_count tags in
    let via_dp =
      AggMMP.run Ram.Count ~arg_len:0 (List.mapi (fun i t -> ([| i32 i |], t)) tags)
    in
    List.iter
      (fun (t, tag) ->
        match Value.to_int (Tuple.get t 0) with
        | Some k -> check (Alcotest.float 1e-9) (Fmt.str "count %d" k) fast.(k) tag
        | None -> Alcotest.fail "bad count tuple")
      via_dp
  done

let test_exists_polarity () =
  let out = AggMMP.run Ram.Exists ~arg_len:0 [ ([| i32 0 |], 0.3) ] |> normalize in
  check rows_testable "exists both rows"
    [ ([| Value.bool false |], 0.7); ([| Value.bool true |], 0.3) ]
    out

module AggB = Aggregate.Make (Prov_discrete.Boolean)

let test_boolean_count_is_cardinality () =
  let items = List.init 5 (fun i -> ([| i32 i |], true)) in
  match AggB.run Ram.Count ~arg_len:0 items with
  | [ (t, true) ] -> check Alcotest.(option int) "count 5" (Some 5) (Value.to_int (Tuple.get t 0))
  | _ -> Alcotest.fail "boolean count should yield exactly the cardinality"

let test_empty_aggregations () =
  check rows_testable "count []"
    [ ([| Value.int Value.USize 0 |], 1.0) ]
    (normalize (AggMMP.run Ram.Count ~arg_len:0 []));
  check rows_testable "max []" [] (normalize (AggMMP.run Ram.Max ~arg_len:0 []));
  check rows_testable "exists []"
    [ ([| Value.bool false |], 1.0) ]
    (normalize (AggMMP.run Ram.Exists ~arg_len:0 []))

(* Formula-tagged aggregation: counting under top-k-proofs recovers the same
   probabilities as the float DP under sum-product (both exact). *)
let test_count_formula_tags () =
  let rng = Scallop_utils.Rng.create 91 in
  for _ = 1 to 20 do
    let n = 2 + Scallop_utils.Rng.int rng 4 in
    let probs = List.init n (fun _ -> 0.1 +. (0.8 *. Scallop_utils.Rng.float rng)) in
    let module P =
      Prov_prob.Top_k_proofs
        (struct
          let k = 20
        end)
        ()
    in
    let module AggF = Aggregate.Make (P) in
    let items =
      List.mapi
        (fun i p ->
          let tag, _ = P.tag_of_input (Provenance.Input.prob p) in
          ([| i32 i |], tag))
        probs
    in
    let via_formula =
      AggF.run Ram.Count ~arg_len:0 items
      |> List.map (fun (t, tag) -> (t, Provenance.Output.prob (P.recover tag)))
      |> normalize
    in
    let via_float =
      AggSP.run Ram.Count ~arg_len:0 (List.mapi (fun i p -> ([| i32 i |], p)) probs)
      |> normalize
    in
    List.iter2
      (fun (t1, p1) (t2, p2) ->
        if Tuple.compare t1 t2 <> 0 then Alcotest.fail "count outcomes differ";
        check (Alcotest.float 1e-6) "formula count prob" p2 p1)
      via_formula via_float
  done

(* prod over an empty relation, and over an empty [where] group, is 1: the
   empty product, as the world semantics gives it. *)
let test_prod_over_nothing () =
  let src =
    {|type sale(i32, i32)
type grp(i32)
rel grp = {0, 1}
rel sale = {(0, 3), (0, 4)}
rel product(t) = t := prod(x: sale(9, x))
rel gprod(g, t) = t := prod(x: sale(g, x) where g: grp(g))
rel gsum(g, t) = t := sum(x: sale(g, x) where g: grp(g))
query product
query gprod
query gsum|}
  in
  let r = Session.interpret ~provenance:(Registry.create Registry.Boolean) src in
  let rows pred = List.map fst (Session.output r pred) in
  let tuples = Alcotest.(list (testable Tuple.pp (fun a b -> Tuple.compare a b = 0))) in
  check tuples "prod over no sale" [ [| i32 1 |] ] (rows "product");
  check tuples "prod per group" [ [| i32 0; i32 12 |]; [| i32 1; i32 1 |] ] (rows "gprod");
  check tuples "sum per group" [ [| i32 0; i32 7 |]; [| i32 1; i32 0 |] ] (rows "gsum");
  check rows_testable "world semantics agrees"
    [ ([| i32 1 |], 1.0) ]
    (AggMMP.world_exact Ram.Prod ~arg_len:0 [])

(* An empty group's neutral value has the result column's type: 0.0 and
   1.0 in an f32 column, so a comparison with a float literal holds. *)
let test_empty_group_neutral_type () =
  let src =
    {|type fitem(i32, f32)
type grp(i32)
rel grp = {1, 2}
rel fitem = {(1, 7.5)}
rel s(g, t) = t := sum(x: fitem(g, x) where g: grp(g))
rel p(g, t) = t := prod(x: fitem(g, x) where g: grp(g))
rel z(g) = s(g, t), t == 0.0
query s
query p
query z|}
  in
  let r = Session.interpret ~provenance:(Registry.create Registry.Boolean) src in
  let rows pred = List.map fst (Session.output r pred) in
  let tuples = Alcotest.(list (testable Tuple.pp (fun a b -> Tuple.compare a b = 0))) in
  let f32 x = Value.float Value.F32 x in
  check tuples "sum" [ [| i32 1; f32 7.5 |]; [| i32 2; f32 0.0 |] ] (rows "s");
  check tuples "prod" [ [| i32 1; f32 7.5 |]; [| i32 2; f32 1.0 |] ] (rows "p");
  check tuples "compared with 0.0" [ [| i32 2 |] ] (rows "z")

(* A boolean provenance that counts its ⊕ and ⊗ calls. *)
module Counted_boolean = struct
  include Prov_discrete.Boolean

  let calls = ref 0

  let add a b =
    incr calls;
    Prov_discrete.Boolean.add a b

  let mult a b =
    incr calls;
    Prov_discrete.Boolean.mult a b
end

(* Counting n certain tuples skips every cell that can only stay false:
   O(n) ⊕/⊗ calls, where the full DP makes about 3n²/2 (6M at n = 2,000). *)
let test_count_linear_on_certain_tags () =
  let n = 2000 in
  let c = Session.compile "type r(i32)\nrel cnt(k) = k := count(x: r(x))\nquery cnt" in
  let facts = [ ("r", List.init n (fun i -> (Provenance.Input.none, [| i32 i |]))) ] in
  Counted_boolean.calls := 0;
  let r = Session.run ~provenance:(module Counted_boolean) c ~facts () in
  check
    Alcotest.(list (testable Tuple.pp (fun a b -> Tuple.compare a b = 0)))
    "count" [ [| Value.int Value.USize n |] ] (List.map fst (Session.output r "cnt"));
  if !Counted_boolean.calls > 20 * n then
    Alcotest.failf "%d ⊕/⊗ calls to count %d certain tuples (bound %d)" !Counted_boolean.calls n
      (20 * n)

(* Every provenance of the registry; the sampling ones twice, at k = 1 and
   2, each side on a fresh instance with the same seed. *)
let every_provenance =
  Registry.
    [
      Unit;
      Boolean;
      Natural;
      Max_min_prob;
      Add_mult_prob;
      Proofs;
      Top_k_proofs 3;
      Sample_k_proofs (1, 5);
      Sample_k_proofs (2, 5);
      Exact_prob;
      Diff_exact_prob;
      Diff_max_min_prob;
      Diff_add_mult_prob;
      Diff_nand_mult_prob;
      Diff_top_k_proofs 3;
      Diff_top_k_proofs_me 3;
      Diff_sample_k_proofs (1, 5);
      Diff_sample_k_proofs (2, 5);
      Diff_top_bottom_k_clauses 3;
    ]

(* Input tags: certain, 0, 1, NaN, or a probability. *)
let input_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Provenance.Input.none);
        (1, return (Provenance.Input.prob 0.0));
        (2, return (Provenance.Input.prob 1.0));
        (1, return (Provenance.Input.prob Float.nan));
        (3, map Provenance.Input.prob (float_range 0.05 0.95));
      ])

let bits x = if Float.is_nan x then "nan" else Printf.sprintf "%Lx" (Int64.bits_of_float x)

(* The rows of counting [inputs] on a fresh instance of [spec]: tuples,
   printed tags and the bits of their recovered outputs, or the error. *)
let count_rows spec ~oracle inputs =
  let module P = (val Registry.create spec) in
  let module A = Aggregate.Make (P) in
  let module T = Scallop_fuzz.Tree_walker.Make (P) in
  try
    let items = List.mapi (fun i input -> ([| i32 i |], fst (P.tag_of_input input))) inputs in
    (if oracle then T.count_dp items else A.run Ram.Count ~arg_len:0 items)
    |> List.map (fun (u, t) ->
           let out =
             match P.recover t with
             | Provenance.Output.O_prob p -> bits p
             | O_dual d ->
                 String.concat ","
                   (bits (Dual.value d) :: List.map (fun (v, g) -> Fmt.str "%d:%s" v (bits g))
                                             (Dual.deriv_list d))
             | o -> Fmt.str "%a" Provenance.Output.pp o
           in
           Fmt.str "%a %a %s" Tuple.pp u P.pp t out)
  with e -> [ Printexc.to_string e ]

let qcheck_count_equals_oracle_dp =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"count = oracle DP under every provenance"
       QCheck.(make QCheck.Gen.(list_size (int_bound 7) input_gen))
       (fun inputs ->
         List.for_all
           (fun spec -> count_rows spec ~oracle:false inputs = count_rows spec ~oracle:true inputs)
           every_provenance))

let suite =
  [
    test_count_sp;
    test_count_mmp;
    test_sum_sp;
    Alcotest.test_case "exists exact with formula tags" `Quick test_exists_formula_exact;
    test_max_sp;
    test_min_sp;
    test_argmax_vs_worlds_sp;
    Alcotest.test_case "argmax basic" `Quick test_argmax_basic;
    Alcotest.test_case "count DP bounds" `Quick test_count_dp_bounds;
    Alcotest.test_case "mmp count algorithm (Alg. 1)" `Quick test_mmp_count_algorithm;
    Alcotest.test_case "exists polarity rows" `Quick test_exists_polarity;
    Alcotest.test_case "boolean count is cardinality" `Quick test_boolean_count_is_cardinality;
    Alcotest.test_case "empty aggregations" `Quick test_empty_aggregations;
    Alcotest.test_case "count with formula tags" `Quick test_count_formula_tags;
    Alcotest.test_case "prod over nothing is 1" `Quick test_prod_over_nothing;
    Alcotest.test_case "empty group's neutral has the column type" `Quick
      test_empty_group_neutral_type;
    Alcotest.test_case "count is linear on certain tags" `Quick test_count_linear_on_certain_tags;
    qcheck_count_equals_oracle_dp;
  ]
