(** SclRam, the low-level relational-algebra representation Scallop programs
    compile to (paper Fig. 5 core fragment, Fig. 22 full syntax).

    Expressions operate over named relational predicates with selection σ,
    projection π, union ∪, product ×, difference −, intersection ∩, natural
    join ⋈, anti-join ▷, tag overwrites 𝟙/∅, aggregation γ (with optional
    group-by γ̂), and sampling ψ/ψ̂.  Join and anti-join carry explicit key
    column indices because our tuples are positional (see DESIGN.md).

    Selections and projections are expressed in a small first-order term
    language [vexpr] over tuple accessors — this keeps the IR a pure data
    structure (inspectable, printable, optimizable) rather than embedding
    OCaml closures. *)

(* ---- value expressions --------------------------------------------------- *)

type vexpr =
  | Access of int  (** i-th column of the input tuple *)
  | Const of Value.t
  | Binop of Foreign.binop * vexpr * vexpr
  | Unop of Foreign.unop * vexpr
  | Call of string * vexpr list  (** foreign function, may fail *)
  | If_then_else of vexpr * vexpr * vexpr
  | Cast of Value.ty * vexpr

(** Evaluate a value expression against a tuple; [None] signals FF failure
    (the fact is dropped, paper Sec. 3.2). *)
let rec eval_vexpr (t : Tuple.t) (e : vexpr) : Value.t option =
  match e with
  | Access i -> if i < Array.length t then Some t.(i) else None
  | Const v -> Some v
  | Binop (op, a, b) -> (
      match (eval_vexpr t a, eval_vexpr t b) with
      | Some va, Some vb -> Foreign.eval_binop op va vb
      | _ -> None)
  | Unop (op, a) -> Option.bind (eval_vexpr t a) (Foreign.eval_unop op)
  | Call (name, args) -> (
      match Foreign.lookup_function name with
      | None -> None
      | Some f ->
          let rec eval_all acc = function
            | [] -> Some (List.rev acc)
            | a :: rest -> (
                match eval_vexpr t a with
                | Some v -> eval_all (v :: acc) rest
                | None -> None)
          in
          Option.bind (eval_all [] args) f)
  | If_then_else (c, a, b) -> (
      match eval_vexpr t c with
      | Some (Value.B true) -> eval_vexpr t a
      | Some (Value.B false) -> eval_vexpr t b
      | _ -> None)
  | Cast (ty, a) -> Option.bind (eval_vexpr t a) (Value.cast ty)

(** [eval_vexpr] staged over a row source that is not a boxed tuple (the
    columnar executor's columns): [col j] is the reader of column [j], or
    [None] when rows have no column [j].  The result evaluates [e] at a row
    index with exactly [eval_vexpr]'s results and evaluation order, without
    building the row's tuple. *)
let rec stage_vexpr (col : int -> (int -> Value.t) option) (e : vexpr) : int -> Value.t option =
  match e with
  | Access j -> (
      match col j with Some get -> fun i -> Some (get i) | None -> fun _ -> None)
  | Const v ->
      let r = Some v in
      fun _ -> r
  | Binop (op, a, b) -> (
      let fa = stage_vexpr col a and fb = stage_vexpr col b in
      fun i ->
        match (fa i, fb i) with
        | Some va, Some vb -> Foreign.eval_binop op va vb
        | _ -> None)
  | Unop (op, a) ->
      let fa = stage_vexpr col a in
      fun i -> Option.bind (fa i) (Foreign.eval_unop op)
  | Call (name, args) -> (
      let fs = List.map (stage_vexpr col) args in
      match Foreign.lookup_function name with
      | None -> fun _ -> None
      | Some f ->
          fun i ->
            let rec eval_all acc = function
              | [] -> Some (List.rev acc)
              | g :: rest -> ( match g i with Some v -> eval_all (v :: acc) rest | None -> None)
            in
            Option.bind (eval_all [] fs) f)
  | If_then_else (c, a, b) -> (
      let fc = stage_vexpr col c and fa = stage_vexpr col a and fb = stage_vexpr col b in
      fun i ->
        match fc i with
        | Some (Value.B true) -> fa i
        | Some (Value.B false) -> fb i
        | _ -> None)
  | Cast (ty, a) ->
      let fa = stage_vexpr col a in
      fun i -> Option.bind (fa i) (Value.cast ty)

(** Evaluate a condition: true iff the expression evaluates to [true].
    Failure counts as false (the tuple is filtered out). *)
let eval_cond (t : Tuple.t) (e : vexpr) : bool =
  match eval_vexpr t e with Some (Value.B b) -> b | _ -> false

(** Evaluate a projection mapping: all components must succeed, and float
    results must not be NaN. *)
let eval_mapping (t : Tuple.t) (m : vexpr list) : Tuple.t option =
  let rec go acc = function
    | [] -> Some (Tuple.of_list (List.rev acc))
    | e :: rest -> (
        match eval_vexpr t e with
        | Some (Value.Float (_, f)) when Float.is_nan f -> None
        | Some v -> go (v :: acc) rest
        | None -> None)
  in
  go [] m

(* ---- aggregators and samplers -------------------------------------------- *)

type aggregator =
  | Count
  | Sum
  | Prod
  | Min
  | Max
  | Argmin
  | Argmax
  | Exists
      (** [Forall] is desugared by the front-end into a negated [Exists]
          (paper Sec. 3.2's integrity-constraint example). *)

let aggregator_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Prod -> "prod"
  | Min -> "min"
  | Max -> "max"
  | Argmin -> "argmin"
  | Argmax -> "argmax"
  | Exists -> "exists"

type sampler = Top_k of int | Categorical of int | Uniform of int

let sampler_name = function
  | Top_k k -> Fmt.str "top<%d>" k
  | Categorical k -> Fmt.str "categorical<%d>" k
  | Uniform k -> Fmt.str "uniform<%d>" k

(* ---- expressions ---------------------------------------------------------- *)

(** Grouping discipline for aggregation/sampling:
    - [No_group]: one global aggregation over all tuples.
    - [Implicit]: groups are the distinct key prefixes occurring in the body
      (e.g. the implicit group-by of [top_1_kinship], paper Sec. 3.3).
    - [Domain e]: SQL-style where-clause (γ̂): groups are the tuples of [e];
      empty groups aggregate over the empty set (so count can yield 0). *)
type group = No_group | Implicit | Domain of expr

and expr =
  | Empty  (** ∅ *)
  | Singleton  (** the unit relation {() :: 1}; seeds rules without positive atoms *)
  | Pred of string
  | Select of vexpr * expr  (** σ_β *)
  | Project of vexpr list * expr  (** π_α *)
  | Union of expr * expr
  | Product of expr * expr
  | Diff of expr * expr  (** tagged difference, Diff-1/Diff-2 *)
  | Intersect of expr * expr
  | Join of { lkeys : int list; rkeys : int list; left : expr; right : expr }
      (** output = left tuple ++ right tuple, matching on key columns *)
  | Antijoin of { lkeys : int list; rkeys : int list; left : expr; right : expr }
      (** negation on a key: left tuples, tag ⊗ ⊖(⊕ matching right tags) *)
  | One_overwrite of expr  (** 𝟙(e): overwrite all tags with 1 *)
  | Zero_overwrite of expr  (** ∅(e): overwrite all tags with 0 *)
  | Aggregate of {
      agg : aggregator;
      key_len : int;  (** group-by key columns (tuple prefix) *)
      arg_len : int;  (** argmin/argmax argument columns after the keys *)
      group : group;
      body : expr;
    }
  | Sample of { sampler : sampler; key_len : int; group : group; body : expr }
  | Foreign_join of { name : string; args : fp_arg list; left : expr }
      (** flat-map a foreign predicate over left tuples; output = left ++
          the predicate's free-argument values *)

and fp_arg = F_col of int | F_const of Value.t | F_free

type rule = { head : string; body : expr }

type stratum = {
  rules : rule list;
  recursive : bool;
      (** whether any rule reads a head of this stratum; non-recursive
          strata need a single evaluation pass instead of a fixed point *)
}

type program = {
  strata : stratum list;
  outputs : string list;  (** relations to recover (ρ applies only to these) *)
}

(* ---- pretty printing ------------------------------------------------------ *)

let rec pp_vexpr fmt = function
  | Access i -> Fmt.pf fmt "$%d" i
  | Const v -> Value.pp fmt v
  | Binop (op, a, b) -> Fmt.pf fmt "(%a %s %a)" pp_vexpr a (Foreign.binop_name op) pp_vexpr b
  | Unop (op, a) -> Fmt.pf fmt "%s%a" (Foreign.unop_name op) pp_vexpr a
  | Call (f, args) -> Fmt.pf fmt "$%s(%a)" f (Fmt.list ~sep:Fmt.comma pp_vexpr) args
  | If_then_else (c, a, b) ->
      Fmt.pf fmt "(if %a then %a else %a)" pp_vexpr c pp_vexpr a pp_vexpr b
  | Cast (ty, a) -> Fmt.pf fmt "(%a as %s)" pp_vexpr a (Value.ty_name ty)

let rec pp_expr fmt = function
  | Empty -> Fmt.string fmt "∅"
  | Singleton -> Fmt.string fmt "{()}"
  | Pred p -> Fmt.string fmt p
  | Select (c, e) -> Fmt.pf fmt "σ[%a](%a)" pp_vexpr c pp_expr e
  | Project (m, e) ->
      Fmt.pf fmt "π[%a](%a)" (Fmt.list ~sep:Fmt.comma pp_vexpr) m pp_expr e
  | Union (a, b) -> Fmt.pf fmt "(%a ∪ %a)" pp_expr a pp_expr b
  | Product (a, b) -> Fmt.pf fmt "(%a × %a)" pp_expr a pp_expr b
  | Diff (a, b) -> Fmt.pf fmt "(%a − %a)" pp_expr a pp_expr b
  | Intersect (a, b) -> Fmt.pf fmt "(%a ∩ %a)" pp_expr a pp_expr b
  | Join { lkeys; rkeys; left; right } ->
      Fmt.pf fmt "(%a ⋈[%a;%a] %a)" pp_expr left
        (Fmt.list ~sep:Fmt.comma Fmt.int) lkeys
        (Fmt.list ~sep:Fmt.comma Fmt.int) rkeys pp_expr right
  | Antijoin { lkeys; rkeys; left; right } ->
      Fmt.pf fmt "(%a ▷[%a;%a] %a)" pp_expr left
        (Fmt.list ~sep:Fmt.comma Fmt.int) lkeys
        (Fmt.list ~sep:Fmt.comma Fmt.int) rkeys pp_expr right
  | One_overwrite e -> Fmt.pf fmt "𝟙(%a)" pp_expr e
  | Zero_overwrite e -> Fmt.pf fmt "∅tag(%a)" pp_expr e
  | Aggregate { agg; key_len; arg_len; group; body } ->
      Fmt.pf fmt "γ[%s,k=%d,a=%d%s](%a)" (aggregator_name agg) key_len arg_len
        (match group with
        | No_group -> ""
        | Implicit -> ",implicit"
        | Domain _ -> ",domain")
        pp_expr body
  | Sample { sampler; key_len; group = _; body } ->
      Fmt.pf fmt "ψ[%s,k=%d](%a)" (sampler_name sampler) key_len pp_expr body
  | Foreign_join { name; args; left } ->
      Fmt.pf fmt "(%a ⋉$%s[%a])" pp_expr left name
        (Fmt.list ~sep:Fmt.comma (fun fmt -> function
           | F_col i -> Fmt.pf fmt "$%d" i
           | F_const v -> Value.pp fmt v
           | F_free -> Fmt.string fmt "_"))
        args

(** One-line label of a node's own operator (children elided) — used by the
    execution profiler's per-node table, where the tree structure supplies
    the nesting that [pp_expr] would spell out. *)
let node_label = function
  | Empty -> "∅"
  | Singleton -> "{()}"
  | Pred p -> p
  | Select (c, _) -> Fmt.str "@[<h>σ[%a]@]" pp_vexpr c
  | Project (m, _) -> Fmt.str "@[<h>π[%a]@]" (Fmt.list ~sep:(Fmt.any ",") pp_vexpr) m
  | Union _ -> "∪"
  | Product _ -> "×"
  | Diff _ -> "−"
  | Intersect _ -> "∩"
  | Join { lkeys; rkeys; _ } ->
      Fmt.str "@[<h>⋈[%a;%a]@]"
        (Fmt.list ~sep:(Fmt.any ",") Fmt.int) lkeys
        (Fmt.list ~sep:(Fmt.any ",") Fmt.int) rkeys
  | Antijoin { lkeys; rkeys; _ } ->
      Fmt.str "@[<h>▷[%a;%a]@]"
        (Fmt.list ~sep:(Fmt.any ",") Fmt.int) lkeys
        (Fmt.list ~sep:(Fmt.any ",") Fmt.int) rkeys
  | One_overwrite _ -> "𝟙"
  | Zero_overwrite _ -> "∅tag"
  | Aggregate { agg; key_len; arg_len; group; _ } ->
      Fmt.str "γ[%s,k=%d,a=%d%s]" (aggregator_name agg) key_len arg_len
        (match group with No_group -> "" | Implicit -> ",implicit" | Domain _ -> ",domain")
  | Sample { sampler; key_len; _ } -> Fmt.str "ψ[%s,k=%d]" (sampler_name sampler) key_len
  | Foreign_join { name; _ } -> Fmt.str "⋉$%s" name

let pp_rule fmt { head; body } = Fmt.pf fmt "%s ← %a" head pp_expr body

let pp_program fmt { strata; outputs } =
  List.iteri
    (fun i s ->
      Fmt.pf fmt "stratum %d:@." i;
      List.iter (fun r -> Fmt.pf fmt "  %a@." pp_rule r) s.rules)
    strata;
  Fmt.pf fmt "outputs: %a@." (Fmt.list ~sep:Fmt.comma Fmt.string) outputs

(** Predicates read by an expression (used by stratification sanity checks
    and by the interpreter to know its dependencies). *)
let rec predicates_of_expr = function
  | Empty | Singleton -> []
  | Pred p -> [ p ]
  | Select (_, e) | Project (_, e) | One_overwrite e | Zero_overwrite e -> predicates_of_expr e
  | Union (a, b) | Product (a, b) | Diff (a, b) | Intersect (a, b) ->
      predicates_of_expr a @ predicates_of_expr b
  | Join { left; right; _ } | Antijoin { left; right; _ } ->
      predicates_of_expr left @ predicates_of_expr right
  | Aggregate { group; body; _ } -> (
      predicates_of_expr body
      @ match group with Domain e -> predicates_of_expr e | _ -> [])
  | Sample { group; body; _ } -> (
      predicates_of_expr body
      @ match group with Domain e -> predicates_of_expr e | _ -> [])
  | Foreign_join { left; _ } -> predicates_of_expr left
