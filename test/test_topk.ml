(** Differential tests for the guided (lazy best-first) ∨k/∧k/¬k proof
    operators against the eager reference oracle
    ({!Scallop_fuzz.Tree_walker.disj_k_eager} and friends, also
    instantiated as the {!Scallop_fuzz.Tree_walker.Top_k_proofs_eager}
    provenance), plus
    insertion-order determinism, the cross-iteration WMC cache, and the
    rewritten sample-k-proofs draw sequence. *)

open Scallop_core
module Rng = Scallop_utils.Rng

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- environments ---------------------------------------------------------------- *)

let base_probs = [| 0.9; 0.7; 0.5; 0.3; 0.2; 0.6 |]
let nvars = Array.length base_probs
let prob_of v = base_probs.(v mod nvars)

let envs =
  [|
    ("plain", Formula.env prob_of);
    (* all-equal probabilities exercise every tie-break path *)
    ("ties", Formula.env (fun _ -> 0.5));
    (* NaN weights must sort last, consistently, on both sides *)
    ("nan", Formula.env (fun v -> if v mod nvars = 2 then Float.nan else prob_of v));
    (* mutual-exclusion groups make merge_proofs drop conflicting pairs *)
    ("me", Formula.env ~me_group:(fun v -> if v mod nvars < 3 then Some 0 else None) prob_of);
  |]

(* ---- generators -------------------------------------------------------------------- *)

let literal_gen = QCheck.Gen.(pair (int_bound (nvars - 1)) bool)

let proof_gen max_lits =
  QCheck.Gen.(map Formula.proof_of_literals (list_size (int_range 1 max_lits) literal_gen))

let raw_formula_gen ~max_proofs ~max_lits =
  QCheck.Gen.(list_size (int_range 0 max_proofs) (proof_gen max_lits))

let fpp = Fmt.to_to_string Formula.pp

let binop_case_gen =
  QCheck.make
    ~print:(fun (ei, k, a, b) ->
      Fmt.str "env=%s k=%d a=%s b=%s" (fst envs.(ei)) k (fpp a) (fpp b))
    QCheck.Gen.(
      quad
        (int_bound (Array.length envs - 1))
        (int_range 1 5)
        (raw_formula_gen ~max_proofs:6 ~max_lits:4)
        (raw_formula_gen ~max_proofs:6 ~max_lits:4))

(* Negation expands the full CNF→DNF product in the unbounded eager oracle,
   so keep its inputs small enough to stay exact. *)
let neg_case_gen =
  QCheck.make
    ~print:(fun (ei, k, f) -> Fmt.str "env=%s k=%d f=%s" (fst envs.(ei)) k (fpp f))
    QCheck.Gen.(
      triple
        (int_bound (Array.length envs - 1))
        (int_range 1 4)
        (raw_formula_gen ~max_proofs:4 ~max_lits:3))

(* Provenance tags always arrive in canonical order; generated proof soup
   does not, so bring it there first (this is what the guided operators'
   fast paths assume). *)
let canon env f = Formula.top_k env max_int f

(* Same proofs in the same order, and (in particular) the same recovered
   probability.  NaN probabilities recover as NaN on both sides. *)
let agree env guided eager =
  Formula.equal_ordered guided eager
  &&
  let pg = Wmc.prob ~env guided and pe = Wmc.prob ~env eager in
  (Float.is_nan pg && Float.is_nan pe) || Float.abs (pg -. pe) <= 1e-9

(* ---- guided ≡ eager ----------------------------------------------------------------- *)

let qcheck_disj_guided_eq_eager =
  qtest "∨k guided ≡ eager" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      agree env (Formula.disj_k env k a b) (Scallop_fuzz.Tree_walker.disj_k_eager env k a b))

let qcheck_conj_guided_eq_eager =
  qtest "∧k guided ≡ eager" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      agree env (Formula.conj_k env k a b) (Scallop_fuzz.Tree_walker.conj_k_eager env k a b))

let qcheck_neg_guided_eq_eager =
  qtest "¬k guided ≡ unbounded eager" neg_case_gen (fun (ei, k, rf) ->
      let env = snd envs.(ei) in
      let f = canon env rf in
      agree env (Formula.neg_k env k f) (Formula.neg_k_eager ~beam:max_int env k f))

let qcheck_guided_results_canonical =
  qtest "guided results are already canonical" binop_case_gen (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      let d = Formula.disj_k env k a b and c = Formula.conj_k env k a b in
      Formula.equal_ordered d (canon env d) && Formula.equal_ordered c (canon env c))

(* The left operand is already truncated to k, and the right one mixes a's
   own proofs, proofs a absorbs (one literal added) and a few fresh proofs,
   so the union often adds nothing. *)
let saturation_case_gen =
  QCheck.make
    ~print:(fun (ei, k, a, picks, b) ->
      Fmt.str "env=%s k=%d a=%s picks=%a b=%s" (fst envs.(ei)) k (fpp a)
        Fmt.(Dump.list (Dump.pair int (Dump.pair int bool)))
        picks (fpp b))
    QCheck.Gen.(
      map
        (fun ((ei, k, a), (picks, b)) -> (ei, k, a, picks, b))
        (pair
           (triple
              (int_bound (Array.length envs - 1))
              (int_range 1 5)
              (raw_formula_gen ~max_proofs:6 ~max_lits:4))
           (pair
              (list_size (int_range 0 6) (pair (int_bound 2) literal_gen))
              (raw_formula_gen ~max_proofs:1 ~max_lits:3))))

(* DESIGN.md "Canonical proof-set order": when the union adds nothing, ∨k
   hands back its left argument physically, which makes the saturation
   check O(1).  Losing this only slows fixpoints down, so nothing else
   would notice. *)
let qcheck_disj_saturation_returns_left =
  qtest "∨k returns its left argument physically when the union adds nothing"
    saturation_case_gen (fun (ei, k, ra, picks, rb) ->
      let env = snd envs.(ei) in
      let a = Formula.top_k env k ra in
      let b =
        List.concat
          (List.mapi
             (fun i p ->
               match List.nth_opt picks i with
               | Some (0, _) -> [ p ]
               | Some (1, lit) -> [ Formula.proof_of_literals (Formula.proof_literals p @ [ lit ]) ]
               | _ -> [])
             a)
        @ rb
        |> canon env
      in
      (not (Formula.equal_ordered (Scallop_fuzz.Tree_walker.disj_k_eager env k a b) a))
      || Formula.disj_k env k a b == a)

let qcheck_insertion_order_determinism =
  qtest "top-k independent of proof insertion order (equal-probability ties)"
    (QCheck.make
       ~print:(fun (seed, k, f) -> Fmt.str "seed=%d k=%d f=%s" seed k (fpp f))
       QCheck.Gen.(
         triple (int_bound 1000) (int_range 1 5) (raw_formula_gen ~max_proofs:8 ~max_lits:4)))
    (fun (seed, k, rf) ->
      let env = snd envs.(1) (* the all-ties environment *) in
      let shuffled =
        let arr = Array.of_list rf in
        Rng.shuffle (Rng.create seed) arr;
        Array.to_list arr
      in
      Formula.equal_ordered (Formula.top_k env k rf) (Formula.top_k env k shuffled)
      && Formula.equal_ordered
           (Formula.disj_k env k (canon env rf) Formula.ff)
           (Formula.disj_k env k (canon env shuffled) Formula.ff))

(* ---- proof representation ------------------------------------------------------------ *)

module IMap = Map.Make (Int)

let imap_of p =
  List.fold_left (fun m (v, s) -> IMap.add v s m) IMap.empty (Formula.proof_literals p)

let proof_pair_gen =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a vs %a" Formula.pp_proof a Formula.pp_proof b)
    QCheck.Gen.(pair (proof_gen 4) (proof_gen 4))

(* Literal arrays compared lexicographically, a proper prefix first, order
   proofs exactly as the map-based representation's IMap.compare
   Bool.compare did — so canonical order breaks probability ties the same
   way. *)
let qcheck_tie_order_is_map_order =
  qtest ~count:1000 "proof_compare ≡ IMap.compare Bool.compare" proof_pair_gen (fun (a, b) ->
      Int.compare (Formula.proof_compare a b) 0
      = Int.compare (IMap.compare Bool.compare (imap_of a) (imap_of b)) 0)

(* The product over a proof's literals in ascending variable order. *)
let reference_prob env p =
  List.fold_left
    (fun acc (v, s) ->
      let r = Formula.prob env v in
      acc *. if s then r else 1.0 -. r)
    1.0 (Formula.proof_literals p)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Every proof an operator returns carries the ascending-variable product of
   its own literals, bit for bit — never a product of its parents'
   probabilities. *)
let qcheck_proof_prob_bits =
  qtest "result proofs carry the ascending-variable literal product" binop_case_gen
    (fun (ei, k, ra, rb) ->
      let env = snd envs.(ei) in
      let a = canon env ra and b = canon env rb in
      List.for_all
        (List.for_all (fun p -> same_bits (Formula.proof_prob env p) (reference_prob env p)))
        [
          Formula.disj_k env k a b;
          Formula.conj_k env k a b;
          Formula.neg_k env k a;
          Scallop_fuzz.Tree_walker.conj_k_eager env k a b;
        ])

(* A probability cached under one environment is never served under
   another: results built under [plain] and reused under [ties], [nan] or
   [me] read that environment's numbers and rank exactly as freshly built
   proofs do. *)
let qcheck_cached_prob_follows_env =
  qtest "cached proof probabilities follow the environment" binop_case_gen
    (fun (ei, k, ra, rb) ->
      let built = snd envs.(0) and env = snd envs.(ei) in
      let a = Formula.conj_k built k (canon built ra) (canon built rb) in
      let fresh f = List.map (fun p -> Formula.proof_of_literals (Formula.proof_literals p)) f in
      List.for_all (fun p -> same_bits (Formula.proof_prob env p) (reference_prob env p)) a
      && Formula.equal_ordered (Formula.top_k env k a) (Formula.top_k env k (fresh a))
      && same_bits (Formula.prob_upper_bound env a) (Formula.prob_upper_bound env (fresh a)))

(* The inclusion–exclusion engine as the map-based representation ran it:
   literal lists, groups collected in an IMap, free literals multiplied in
   descending variable order, then groups in ascending id. *)
let reference_ie env (formula : Formula.t) =
  let ops = Wmc.dual_ops in
  let weight_of v = Dual.var v (Formula.prob env v) in
  let me_group v =
    let g = Formula.group env v in
    if g = Formula.no_group then None else Some g
  in
  let merge a b =
    let conflict = ref false in
    let m =
      IMap.union
        (fun _ sa sb ->
          if not (Bool.equal sa sb) then conflict := true;
          Some sa)
        a b
    in
    let seen = Hashtbl.create 4 in
    IMap.iter
      (fun v s ->
        if s then
          match me_group v with
          | None -> ()
          | Some g -> (
              match Hashtbl.find_opt seen g with
              | Some v' when v' <> v -> conflict := true
              | _ -> Hashtbl.replace seen g v))
      m;
    if !conflict then None else Some m
  in
  let conj_weight proof =
    let grouped = ref IMap.empty and free = ref [] in
    IMap.iter
      (fun v s ->
        match me_group v with
        | None -> free := (v, s) :: !free
        | Some g ->
            grouped := IMap.update g (fun l -> Some ((v, s) :: Option.value l ~default:[])) !grouped)
      proof;
    let acc = ref ops.Wmc.one in
    List.iter
      (fun (v, s) ->
        let w = weight_of v in
        acc := ops.Wmc.mul !acc (if s then w else ops.Wmc.complement w))
      !free;
    IMap.iter
      (fun _ lits ->
        match List.filter snd lits with
        | (v, _) :: _ -> acc := ops.Wmc.mul !acc (weight_of v)
        | [] ->
            let s = List.fold_left (fun s (v, _) -> ops.Wmc.add s (weight_of v)) ops.Wmc.zero lits in
            acc := ops.Wmc.mul !acc (ops.Wmc.max0 (ops.Wmc.complement s)))
      !grouped;
    !acc
  in
  let proofs = Array.of_list (List.map imap_of formula) in
  let n = Array.length proofs in
  let total = ref ops.Wmc.zero in
  for mask = 1 to (1 lsl n) - 1 do
    let merged = ref (Some IMap.empty) and size = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        incr size;
        merged := Option.bind !merged (fun m -> merge m proofs.(i))
      end
    done;
    match !merged with
    | None -> ()
    | Some m ->
        let w = conj_weight m in
        total := ops.Wmc.add !total (if !size mod 2 = 1 then w else ops.Wmc.neg w)
  done;
  !total

(* The [me] environment plus one whose exclusion group {0, 1, 2} sums to
   less than 1 with weights whose sum depends on the order of addition, so
   the all-negative group term is not clamped away. *)
let ie_envs =
  [|
    snd envs.(3);
    Formula.env
      ~me_group:(fun v -> if v mod nvars < 3 then Some 0 else None)
      (fun v -> [| 0.1; 0.2; 0.3; 0.6; 0.35; 0.8 |].(v mod nvars));
  |]

let qcheck_ie_float_order =
  qtest ~count:500 "IE dual value and gradients ≡ map-based IE, bit for bit"
    (QCheck.make ~print:(fun (ei, k, f) -> Fmt.str "env=%d k=%d f=%s" ei k (fpp f))
       QCheck.Gen.(triple (int_bound 1) (int_range 1 5) (raw_formula_gen ~max_proofs:6 ~max_lits:4)))
    (fun (ei, k, rf) ->
      let env = ie_envs.(ei) in
      let f = Formula.top_k env k rf in
      let got = Wmc.dual ~env f and want = reference_ie env f in
      let grouped p = List.exists (fun (v, _) -> v mod nvars < 3) (Formula.proof_literals p) in
      (not (List.exists grouped f))
      || same_bits (Dual.value got) (Dual.value want)
         && List.equal
              (fun (v, g) (v', g') -> v = v' && same_bits g g')
              (Dual.deriv_list got) (Dual.deriv_list want))

(* ---- end-to-end fixpoint differential ----------------------------------------------- *)

let tc_src =
  {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}

let test_fixpoint_guided_vs_eager () =
  let compiled = Session.compile tc_src in
  let facts =
    [
      ( "edge",
        List.init 25 (fun i ->
            ( Provenance.Input.prob (0.5 +. (0.02 *. float_of_int (i mod 25))),
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let run provenance = Session.output (Session.run ~provenance compiled ~facts ()) "path" in
  let eager : Provenance.t =
    let module M =
      Scallop_fuzz.Tree_walker.Top_k_proofs_eager
        (struct
          let k = 3
        end)
        ()
    in
    (module M)
  in
  let guided = run (Registry.create (Registry.Top_k_proofs 3)) and eager = run eager in
  check Alcotest.int "same tuple count" (List.length eager) (List.length guided);
  List.iter2
    (fun (tg, og) (te, oe) ->
      if Tuple.compare tg te <> 0 then Alcotest.failf "tuple mismatch: %a vs %a" Tuple.pp tg Tuple.pp te;
      check (Alcotest.float 1e-9) "same recovered prob" (Provenance.Output.prob oe)
        (Provenance.Output.prob og))
    guided eager

(* ---- WMC cache ----------------------------------------------------------------------- *)

let with_cache_isolated f =
  let was = Wmc.cache_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Wmc.set_cache_enabled was;
      Wmc.clear_cache ())
    (fun () ->
      Wmc.set_cache_enabled true;
      Wmc.clear_cache ();
      f ())

let random_formula rng max_proofs max_lits =
  List.init
    (1 + Rng.int rng max_proofs)
    (fun _ ->
      Formula.proof_of_literals
        (List.init (1 + Rng.int rng max_lits) (fun _ -> (Rng.int rng nvars, Rng.bool rng))))
  |> Formula.dedup

let test_wmc_cache_bit_identical () =
  with_cache_isolated (fun () ->
      let rng = Rng.create 99 in
      let env = snd envs.(0) in
      for _ = 1 to 100 do
        let f = random_formula rng 5 4 in
        Wmc.set_cache_enabled false;
        let reference = Wmc.prob ~env f in
        Wmc.set_cache_enabled true;
        let cold = Wmc.prob ~env f in
        let warm = Wmc.prob ~env f in
        if Int64.bits_of_float cold <> Int64.bits_of_float reference then
          Alcotest.failf "cold cache differs on %s: %h vs %h" (fpp f) cold reference;
        if Int64.bits_of_float warm <> Int64.bits_of_float reference then
          Alcotest.failf "warm cache differs on %s: %h vs %h" (fpp f) warm reference
      done)

let test_wmc_cache_invalidation_on_prob_change () =
  with_cache_isolated (fun () ->
      (* Same formula structure, moved weights: the cached BDD is reused but
         the counted result must not be — weights are part of the result key. *)
      let f =
        [
          Formula.proof_of_literals [ (0, true); (1, true) ];
          Formula.proof_of_literals [ (2, true) ];
        ]
      in
      let mk p = Formula.env (fun v -> p.(v)) in
      let before = (Wmc.cache_stats ()).Wmc.result_misses in
      let a = Wmc.prob ~env:(mk [| 0.9; 0.5; 0.4 |]) f in
      let a' = Wmc.prob ~env:(mk [| 0.9; 0.5; 0.4 |]) f in
      let b = Wmc.prob ~env:(mk [| 0.1; 0.5; 0.4 |]) f in
      check Alcotest.bool "identical env hits" true (Int64.bits_of_float a = Int64.bits_of_float a');
      Wmc.set_cache_enabled false;
      let b_ref = Wmc.prob ~env:(mk [| 0.1; 0.5; 0.4 |]) f in
      check Alcotest.bool "changed env recomputes, not stale" true
        (Int64.bits_of_float b = Int64.bits_of_float b_ref);
      let s = Wmc.cache_stats () in
      (* two distinct weight vectors = exactly two result misses, one hit *)
      check Alcotest.int "result misses" (before + 2) s.Wmc.result_misses;
      check Alcotest.bool "result hit recorded" true (s.Wmc.result_hits >= 1))

let test_wmc_cache_stats_and_clear () =
  with_cache_isolated (fun () ->
      let env = snd envs.(0) in
      let f =
        [
          Formula.proof_of_literals [ (0, true); (3, false) ];
          Formula.proof_of_literals [ (1, true); (4, true) ];
        ]
      in
      let s0 = Wmc.cache_stats () in
      ignore (Wmc.prob ~env f);
      let s1 = Wmc.cache_stats () in
      check Alcotest.int "first call misses bdd" (s0.Wmc.bdd_misses + 1) s1.Wmc.bdd_misses;
      check Alcotest.bool "manager holds nodes" true (s1.Wmc.manager_nodes > 2);
      ignore (Wmc.prob ~env f);
      let s2 = Wmc.cache_stats () in
      check Alcotest.int "second call hits bdd" (s1.Wmc.bdd_hits + 1) s2.Wmc.bdd_hits;
      check Alcotest.int "second call hits result" (s1.Wmc.result_hits + 1) s2.Wmc.result_hits;
      Wmc.clear_cache ();
      ignore (Wmc.prob ~env f);
      let s3 = Wmc.cache_stats () in
      check Alcotest.int "post-clear call misses again" (s2.Wmc.bdd_misses + 1) s3.Wmc.bdd_misses)

let test_wmc_cache_dual_identical () =
  with_cache_isolated (fun () ->
      let rng = Rng.create 1234 in
      let env = snd envs.(0) in
      for _ = 1 to 50 do
        let f = random_formula rng 4 3 in
        Wmc.set_cache_enabled false;
        let reference = Wmc.dual ~env f in
        Wmc.set_cache_enabled true;
        let cold = Wmc.dual ~env f in
        let warm = Wmc.dual ~env f in
        List.iter
          (fun d ->
            check (Alcotest.float 0.0) "dual value" (Dual.value reference) (Dual.value d);
            if Dual.deriv_list d <> Dual.deriv_list reference then
              Alcotest.failf "dual gradient differs on %s" (fpp f))
          [ cold; warm ]
      done)

(* ---- sample-k-proofs draw sequence ----------------------------------------------------- *)

(* The historic list-based sampler (List.nth / List.filteri rebuild per
   round, Rng.categorical on the compacted weights).  The array rewrite in
   Prov_prob.Sample_k_proofs must reproduce its draw sequence exactly. *)
let reference_sample_k env rng k proofs =
  let proofs = Formula.dedup proofs in
  if List.compare_length_with proofs k <= 0 then proofs
  else begin
    let remaining = ref proofs in
    let out = ref [] in
    for _ = 1 to k do
      let weights = Array.of_list (List.map (Formula.proof_prob env) !remaining) in
      let i = Rng.categorical rng weights in
      out := List.nth !remaining i :: !out;
      remaining := List.filteri (fun j _ -> j <> i) !remaining
    done;
    List.rev !out
  end

let test_sample_k_matches_historic_reference () =
  let module S =
    Prov_prob.Sample_k_proofs
      (struct
        let k = 2
        let seed = 7
      end)
      ()
  in
  let mk p = fst (S.tag_of_input (Provenance.Input.prob p)) in
  let rng_ref = Rng.create 7 in
  let same name got expect =
    if not (Formula.equal got expect) then
      Alcotest.failf "%s: sampled %s, reference %s" name (fpp got) (fpp expect)
  in
  (* round 1: mixed weights, including a NaN that poisons the total *)
  let fs = List.map mk [ 0.9; Float.nan; 0.4; 0.8; 0.3 ] in
  let a = List.concat (Scallop_utils.Listx.take 3 fs) in
  let b = List.concat (Scallop_utils.Listx.drop 3 fs) in
  same "nan-total batch" (S.add a b) (reference_sample_k S.env rng_ref 2 (a @ b));
  (* round 2: all-zero weights take the uniform fallback *)
  let zs = List.map mk [ 0.0; 0.0; 0.0 ] in
  let za = List.concat (Scallop_utils.Listx.take 2 zs) in
  let zb = List.concat (Scallop_utils.Listx.drop 2 zs) in
  same "zero-total batch" (S.add za zb) (reference_sample_k S.env rng_ref 2 (za @ zb));
  (* round 3: ordinary weighted draws *)
  let ws = List.map mk [ 0.7; 0.1; 0.6; 0.2; 0.5; 0.05 ] in
  let wa = List.concat (Scallop_utils.Listx.take 4 ws) in
  let wb = List.concat (Scallop_utils.Listx.drop 4 ws) in
  same "weighted batch" (S.add wa wb) (reference_sample_k S.env rng_ref 2 (wa @ wb))

let qcheck_sample_k_matches_reference =
  qtest ~count:100 "sample_k ≡ historic list sampler (shared RNG stream)"
    (QCheck.make
       ~print:(fun ps -> Fmt.str "probs=%a" Fmt.(Dump.list float) ps)
       QCheck.Gen.(
         list_size (int_range 1 10)
           (frequency [ (8, float_bound_inclusive 1.0); (1, return 0.0); (1, return Float.nan) ])))
    (fun probs ->
      let module S =
        Prov_prob.Sample_k_proofs
          (struct
            let k = 3
            let seed = 0
          end)
          ()
      in
      (* the module RNG is freshly seeded, so a reference generator created
         with the same seed replays the exact stream [add] will consume *)
      let fs = List.map (fun p -> fst (S.tag_of_input (Provenance.Input.prob p))) probs in
      let all = List.concat fs in
      let got = S.add all Formula.ff in
      let expect = reference_sample_k S.env (Rng.create 0) 3 all in
      Formula.equal got expect)

let suite =
  [
    qcheck_disj_guided_eq_eager;
    qcheck_conj_guided_eq_eager;
    qcheck_neg_guided_eq_eager;
    qcheck_guided_results_canonical;
    qcheck_disj_saturation_returns_left;
    qcheck_insertion_order_determinism;
    qcheck_tie_order_is_map_order;
    qcheck_proof_prob_bits;
    qcheck_cached_prob_follows_env;
    qcheck_ie_float_order;
    Alcotest.test_case "fixpoint: guided ≡ eager provenance" `Quick test_fixpoint_guided_vs_eager;
    Alcotest.test_case "wmc cache: bit-identical to uncached" `Quick test_wmc_cache_bit_identical;
    Alcotest.test_case "wmc cache: weight change invalidates" `Quick
      test_wmc_cache_invalidation_on_prob_change;
    Alcotest.test_case "wmc cache: stats and clear" `Quick test_wmc_cache_stats_and_clear;
    Alcotest.test_case "wmc cache: dual gradients identical" `Quick test_wmc_cache_dual_identical;
    Alcotest.test_case "sample_k: golden draw sequence" `Quick
      test_sample_k_matches_historic_reference;
    qcheck_sample_k_matches_reference;
  ]
