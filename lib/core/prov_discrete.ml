(** Discrete provenances: unit, boolean, natural and proof-set reasoning.

    These instantiate the provenance framework with classical (non-
    probabilistic) algebras.  [Unit] and [Boolean] recover untagged Datalog
    semantics; [Natural] is the counting semiring (number of derivations);
    [Proofs] tracks the full set of derivation proofs without truncation —
    it is the k → ∞ limit of top-k-proofs and underlies the exact
    (DeepProbLog-style) baseline. *)

open Provenance

module Unit : S with type t = bool = struct
  (* 0 must differ from 1, so the carrier is a boolean presence flag; the
     output space is unit. *)
  type t = bool

  let name = "unit"
  let zero = false
  let one = true
  let add = ( || )
  let mult = ( && )
  let negate t = Some (not t)
  let saturated ~old t = Bool.equal old t
  let discard t = not t
  let weight t = if t then 1.0 else 0.0
  let tag_of_input (_ : Input.t) = (true, None)
  let recover _ = Output.O_unit
  let pp fmt t = Fmt.bool fmt t
end

module Boolean : S with type t = bool = struct
  include Unit

  let name = "boolean"

  (* A probability below 0.5 is read as "more likely false than true". *)
  let tag_of_input (i : Input.t) =
    ((match i.Input.prob with None -> true | Some p -> p >= 0.5), None)

  (* shared outputs: recover sits on the per-tuple result path *)
  let o_true = Output.O_bool true
  let o_false = Output.O_bool false
  let recover t = if t then o_true else o_false
end

module Natural : S with type t = int = struct
  (* The counting semiring N: tags count distinct derivations.  Negation is
     only defined at 0/1 (paper Sec. 4.1 allows provenances that violate
     individual properties for programs not using the affected features). *)
  type t = int

  let name = "natural"
  let zero = 0
  let one = 1
  let add = ( + )
  let mult = ( * )
  let negate t = Some (if t = 0 then 1 else 0)

  (* N is not absorptive; equality-based saturation still terminates for
     non-recursive or derivation-finite programs. *)
  let saturated ~old t = Int.equal old t
  let discard t = t = 0
  let weight t = float_of_int t
  let tag_of_input (_ : Input.t) = (1, None)
  let recover t = Output.O_nat t
  let pp = Fmt.int
end

(** max-min-prob (paper Example 4.1): tags in [0,1] propagated with max/min.
    This is the discrete-runtime version; see {!Prov_diff.Diff_max_min_prob}
    for the differentiable counterpart. *)
module Max_min_prob : S with type t = float = struct
  type t = float

  let name = "minmaxprob"
  let zero = 0.0
  let one = 1.0
  let add = Float.max
  let mult = Float.min
  let negate t = Some (1.0 -. t)
  let saturated ~old t = Float.equal old t
  let discard t = t <= 0.0
  let weight t = t
  let tag_of_input (i : Input.t) = ((match i.Input.prob with None -> 1.0 | Some p -> p), None)
  let recover t = Output.O_prob t
  let pp fmt t = Fmt.pf fmt "%.4f" t
end

(** Full proof-set provenance: DNF formulas without any k-truncation.  The
    absorption law holds (a proof that subsumes another absorbs it), so
    fixed points exist.  Functorized over a mutable probability store so the
    same module serves both the discrete "proofs" provenance (probabilities
    ignored) and the exact probabilistic one (see {!Prov_prob.Exact}). *)
module Proofs () : sig
  include S with type t = Formula.t

  val env : Formula.env
end = struct
  type t = Formula.t

  let name = "proofs"

  (* Variable ids are allocated densely from 0, so the environment is a
     table indexed by id; a variable's probability and group are set once,
     before any proof mentions it. *)
  let env = Formula.table_env ()
  let next_id = ref 0

  (* No truncation: k = max_int.  Beam for cnf2dnf stays bounded to keep
     negation tractable; exactness is preserved up to that beam. *)
  let k = max_int
  let zero = Formula.ff
  let one = Formula.tt
  let add a b = Formula.disj_k env k a b
  let mult a b = Formula.conj_k env k a b
  let negate t = Some (Formula.neg_k ~beam:4096 env k t)

  (* Tags are produced exclusively by the canonical-order operations, so the
     ordered O(n) comparison replaces the O(n²) set equality. *)
  let saturated ~old t = Formula.equal_ordered old t
  let discard t = Formula.is_false t
  let weight t = Formula.prob_upper_bound env t

  let tag_of_input (i : Input.t) =
    match i.Input.prob with
    | None ->
        (* Untagged facts are unconditionally true: no variable needed, and
           proofs stay small. *)
        (Formula.tt, None)
    | Some p ->
        let id = !next_id in
        incr next_id;
        Formula.set_var env id p (Option.value i.Input.me_group ~default:Formula.no_group);
        ([ Formula.with_prob env (Formula.singleton_pos id) ], Some id)

  let recover t = Output.O_proofs t
  let pp = Formula.pp
end
