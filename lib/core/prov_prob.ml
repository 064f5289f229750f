(** Probabilistic (non-differentiable) provenances.

    These propagate probability-like tags without gradients; they are the
    "debug before integrating a neural network" modes of paper Sec. 3.3, and
    [Exact] is the DeepProbLog-style exact-inference baseline used in the
    runtime comparison (Table 4): full proof sets, no truncation, exact WMC. *)

open Provenance

(** Proof-formula provenances additionally expose their probability
    environment so differentiable wrappers can re-run WMC with duals. *)
module type PROOFS_S = sig
  include S with type t = Formula.t

  val env : Formula.env
end

(** add-mult-prob: ⊕ = clamped +, ⊗ = ·, ⊖ = 1−x.  Saturation always true
    (paper Sec. 4.5.2), so recursive rules stop after one extra round. *)
module Add_mult_prob : S with type t = float = struct
  type t = float

  let name = "addmultprob"
  let zero = 0.0
  let one = 1.0
  let add a b = Float.min 1.0 (a +. b)
  let mult a b = a *. b
  let negate t = Some (1.0 -. t)
  let saturated ~old:_ _ = true
  let discard t = t <= 0.0
  let weight t = t
  let tag_of_input (i : Input.t) = ((match i.Input.prob with None -> 1.0 | Some p -> p), None)
  let recover t = Output.O_prob t
  let pp fmt = Fmt.pf fmt "%.4f"
end

(** top-k-proofs with probability recovery: tags are DNF formulas capped at
    [k] proofs; ρ runs exact WMC over the kept proofs. *)
module Top_k_proofs (K : sig
  val k : int
end)
() : PROOFS_S = struct
  module P = Prov_discrete.Proofs ()

  let env = P.env

  type t = Formula.t

  let name = Fmt.str "topkproofs-%d" K.k
  let zero = Formula.ff
  let one = Formula.tt
  let add a b = Formula.disj_k P.env K.k a b
  let mult a b = Formula.conj_k P.env K.k a b
  let negate t = Some (Formula.neg_k P.env K.k t)

  (* Tags coming out of disj_k/conj_k/neg_k are canonical, so the ordered
     comparison suffices — O(n) with an O(1) fast path when disj_k returned
     the old tag physically unchanged. *)
  let saturated ~old t = Formula.equal_ordered old t
  let discard t = Formula.is_false t
  let weight t = Formula.prob_upper_bound P.env t
  let tag_of_input = P.tag_of_input
  let recover t = Output.O_prob (Wmc.prob ~env:P.env t)
  let pp = Formula.pp
end

(** sample-k-proofs: like top-k-proofs, but instead of keeping the k {e most
    probable} proofs deterministically, keeps k proofs sampled with
    probability proportional to their proof probability.  Trades reasoning
    granularity for exploration (useful in RL-style setups). *)
module Sample_k_proofs (K : sig
  val k : int
  val seed : int
end)
() : PROOFS_S = struct
  module P = Prov_discrete.Proofs ()

  let env = P.env
  let rng = Scallop_utils.Rng.create K.seed

  type t = Formula.t

  let name = Fmt.str "samplekproofs-%d" K.k

  (* k rounds of weighted sampling without replacement.  Array-based with
     in-place weight zeroing: probabilities are computed once, and each round
     is one O(n) scan instead of the historic List.nth/List.filteri rebuild
     (O(k·n²) total).  The draw sequence is bit-identical to the historic
     list version for a fixed RNG stream (pinned by a golden test):

     - zeroed (already-chosen) entries add exactly +0.0 to the running total
       and can never be where the cumulative scan first crosses, so the scan
       selects the same proof the compacted-list scan would;
     - the scan's float-rounding fallback ("no entry crossed") remaps to the
       last unchosen index — the compacted list's last element — without
       consuming randomness;
     - a non-positive or non-finite total draws a uniform index among the
       n - round unchosen entries, exactly like Rng.categorical on the
       compacted weights (both paths advance the RNG state once per round). *)
  let sample_k proofs =
    let proofs = Formula.dedup proofs in
    if List.compare_length_with proofs K.k <= 0 then proofs
    else begin
      let arr = Array.of_list proofs in
      let n = Array.length arr in
      let w = Array.map (Formula.proof_prob P.env) arr in
      let chosen = Array.make n false in
      let out = ref [] in
      let last_unchosen () =
        let i = ref (n - 1) in
        while chosen.(!i) do
          decr i
        done;
        !i
      in
      let nth_unchosen j =
        let count = ref j and res = ref (-1) in
        (try
           for i = 0 to n - 1 do
             if not chosen.(i) then
               if !count = 0 then begin
                 res := i;
                 raise Exit
               end
               else decr count
           done
         with Exit -> ());
        !res
      in
      for round = 0 to K.k - 1 do
        let total = Array.fold_left ( +. ) 0.0 w in
        let pick =
          if total <= 0.0 || not (Float.is_finite total) then
            nth_unchosen (Scallop_utils.Rng.int rng (n - round))
          else begin
            let x = Scallop_utils.Rng.float rng *. total in
            let acc = ref 0.0 in
            let res = ref (-1) in
            (try
               Array.iteri
                 (fun i wi ->
                   acc := !acc +. wi;
                   if x < !acc then begin
                     res := i;
                     raise Exit
                   end)
                 w
             with Exit -> ());
            if !res >= 0 then !res else last_unchosen ()
          end
        in
        chosen.(pick) <- true;
        w.(pick) <- 0.0;
        out := arr.(pick) :: !out
      done;
      List.rev !out
    end

  let zero = Formula.ff
  let one = Formula.tt
  let add a b = sample_k (a @ b)

  let mult a b =
    let merged =
      List.concat_map
        (fun pa -> List.filter_map (fun pb -> Formula.merge_proofs P.env pa pb) b)
        a
    in
    sample_k merged

  let negate t = Some (sample_k (Formula.neg_k P.env (4 * K.k) t))
  let saturated ~old t = Formula.equal old t
  let discard t = Formula.is_false t
  let weight t = Formula.prob_upper_bound P.env t
  let tag_of_input = P.tag_of_input
  let recover t = Output.O_prob (Wmc.prob ~env:P.env t)
  let pp = Formula.pp
end

(** Exact probabilistic inference: untruncated proof sets with exact WMC —
    the semantics of DeepProbLog/ProbLog, i.e. top-k-proofs with k ≥ 2ⁿ
    (paper Sec. 6.4).  Prohibitively slow on larger problems by design;
    serves as the DPL baseline in Table 4. *)
module Exact () : PROOFS_S = struct
  module P = Prov_discrete.Proofs ()
  include (P : S with type t = Formula.t)

  let env = P.env
  let name = "exactprobproofs"
  let recover t = Output.O_prob (Wmc.prob ~env:P.env t)
end
