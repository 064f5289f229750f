(** Back-IR optimizations over SclRam query plans (paper Sec. 5: "In
    back-IR, we generate query plans and apply optimizations").

    The rule compiler is deliberately simple and leaves obvious fat in the
    plans; this pass cleans it up without changing semantics:

    - constant folding inside value expressions (including failing constant
      expressions, which become unsatisfiable selections),
    - trivial selections: [σ_true] disappears, [σ_false] empties the plan,
    - projection fusion: [π_m2 (π_m1 e)] → [π_(m2 ∘ m1) e] — the compiler
      emits a projection per join, so chains are common,
    - selection fusion: [σ_c2 (σ_c1 e)] → [σ_(c1 && c2) e],
    - empty-plan propagation through every operator (∪, ×, ⋈, −, γ, …). *)

open Ram

(* ---- constant folding in value expressions -------------------------------- *)

let rec vexpr_is_const = function
  | Const _ -> true
  | Access _ -> false
  | Binop (_, a, b) -> vexpr_is_const a && vexpr_is_const b
  | Unop (_, a) -> vexpr_is_const a
  | Call (_, args) -> List.for_all vexpr_is_const args
  | If_then_else (c, a, b) -> vexpr_is_const c && vexpr_is_const a && vexpr_is_const b
  | Cast (_, a) -> vexpr_is_const a

(** Fold constants bottom-up.  A constant sub-expression that fails to
    evaluate (e.g. division by zero) is left intact so the failure keeps its
    per-tuple drop semantics. *)
let rec fold_vexpr (e : vexpr) : vexpr =
  let try_eval e' = match eval_vexpr Tuple.unit e' with Some v -> Const v | None -> e' in
  match e with
  | Access _ | Const _ -> e
  | Binop (op, a, b) ->
      let a = fold_vexpr a and b = fold_vexpr b in
      let e' = Binop (op, a, b) in
      if vexpr_is_const a && vexpr_is_const b then try_eval e' else e'
  | Unop (op, a) ->
      let a = fold_vexpr a in
      let e' = Unop (op, a) in
      if vexpr_is_const a then try_eval e' else e'
  | Call (f, args) ->
      let args = List.map fold_vexpr args in
      let e' = Call (f, args) in
      if List.for_all vexpr_is_const args then try_eval e' else e'
  | If_then_else (c, a, b) -> (
      let c = fold_vexpr c and a = fold_vexpr a and b = fold_vexpr b in
      match c with
      | Const (Value.B true) -> a
      | Const (Value.B false) -> b
      | _ -> If_then_else (c, a, b))
  | Cast (ty, a) ->
      let a = fold_vexpr a in
      let e' = Cast (ty, a) in
      if vexpr_is_const a then try_eval e' else e'

(* ---- plan rewriting --------------------------------------------------------- *)

(* Substitute [Access i] by [m.(i)] — the composition step of projection
   fusion. *)
let rec subst_accesses (m : vexpr array) (e : vexpr) : vexpr =
  match e with
  | Access i -> if i < Array.length m then m.(i) else e
  | Const _ -> e
  | Binop (op, a, b) -> Binop (op, subst_accesses m a, subst_accesses m b)
  | Unop (op, a) -> Unop (op, subst_accesses m a)
  | Call (f, args) -> Call (f, List.map (subst_accesses m) args)
  | If_then_else (c, a, b) ->
      If_then_else (subst_accesses m c, subst_accesses m a, subst_accesses m b)
  | Cast (ty, a) -> Cast (ty, subst_accesses m a)

(* Projection mappings may only be fused through if the inner mapping is
   total (pure accesses/constants cannot fail; foreign calls can fail and
   must stay evaluated exactly once per tuple). *)
let rec infallible = function
  | Access _ | Const _ -> true
  | Binop ((Foreign.Eq | Foreign.Neq | Foreign.Lt | Foreign.Leq | Foreign.Gt | Foreign.Geq), a, b)
    ->
      infallible a && infallible b
  | Binop _ | Call _ -> false
  | Unop (Foreign.Not, a) -> infallible a
  | Unop (Foreign.Neg, _) -> false
  | If_then_else (c, a, b) -> infallible c && infallible a && infallible b
  | Cast _ -> false

let rec optimize_expr (e : expr) : expr =
  match e with
  | Empty | Singleton | Pred _ -> e
  | Select (c, sub) -> (
      let c = fold_vexpr c in
      let sub = optimize_expr sub in
      match (c, sub) with
      | Const (Value.B true), _ -> sub
      | Const (Value.B false), _ -> Empty
      | _, Empty -> Empty
      | _, Select (c1, inner) -> Select (Binop (Foreign.Land, c1, c), inner)
      | _ -> Select (c, sub))
  | Project (m, sub) -> (
      let m = List.map fold_vexpr m in
      let sub = optimize_expr sub in
      match sub with
      | Empty -> Empty
      | Project (m1, inner) when List.for_all infallible m1 ->
          let m1 = Array.of_list m1 in
          Project (List.map (subst_accesses m1) m, inner)
      | _ -> Project (m, sub))
  | Union (a, b) -> (
      match (optimize_expr a, optimize_expr b) with
      | Empty, x | x, Empty -> x
      | a, b -> Union (a, b))
  | Product (a, b) -> (
      match (optimize_expr a, optimize_expr b) with
      | Empty, _ | _, Empty -> Empty
      | a, b -> Product (a, b))
  | Intersect (a, b) -> (
      match (optimize_expr a, optimize_expr b) with
      | Empty, _ | _, Empty -> Empty
      | a, b -> Intersect (a, b))
  | Diff (a, b) -> (
      match (optimize_expr a, optimize_expr b) with
      | Empty, _ -> Empty
      | a, Empty -> a
      | a, b -> Diff (a, b))
  | Join { lkeys; rkeys; left; right } -> (
      match (optimize_expr left, optimize_expr right) with
      | Empty, _ | _, Empty -> Empty
      | left, right -> Join { lkeys; rkeys; left; right })
  | Antijoin { lkeys; rkeys; left; right } -> (
      match (optimize_expr left, optimize_expr right) with
      | Empty, _ -> Empty
      | left, Empty -> left
      | left, right -> Antijoin { lkeys; rkeys; left; right })
  | One_overwrite sub -> (
      match optimize_expr sub with Empty -> Empty | sub -> One_overwrite sub)
  | Zero_overwrite sub -> (
      match optimize_expr sub with Empty -> Empty | sub -> Zero_overwrite sub)
  | Aggregate { agg; key_len; arg_len; result_ty; group; body } ->
      let group = match group with Domain d -> Domain (optimize_expr d) | g -> g in
      Aggregate { agg; key_len; arg_len; result_ty; group; body = optimize_expr body }
  | Sample { sampler; key_len; group; body } ->
      let group = match group with Domain d -> Domain (optimize_expr d) | g -> g in
      Sample { sampler; key_len; group; body = optimize_expr body }
  | Foreign_join { name; args; left } -> (
      match optimize_expr left with
      | Empty -> Empty
      | left -> Foreign_join { name; args; left })

let optimize_rule (r : rule) : rule = { r with body = optimize_expr r.body }

let optimize_stratum (s : stratum) : stratum = { s with rules = List.map optimize_rule s.rules }

let optimize_program (p : program) : program = { p with strata = List.map optimize_stratum p.strata }
