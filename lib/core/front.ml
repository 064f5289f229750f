(** Front-end analyses and desugaring (the "front-IR" of paper Sec. 5).

    Lowers the surface AST into a core form where:
    - constant variables are substituted by their definitions,
    - logical connectives are normalized: [implies] and general [not] are
      pushed down (NNF) and rule bodies are flattened into disjunctive normal
      form, one core rule per disjunct,
    - [forall] aggregations are rewritten into value-negated [exists] over
      the negated body (world-exact, see {!Aggregate}),
    - probabilistic rules are desugared into plain rules guarded by a fresh
      tagged nullary fact (paper Sec. 3.3),
    - fact sets are flattened into tagged facts, allocating one mutual-
      exclusion group per [;]-joined segment,
    - [import]s are resolved through a loader callback. *)

exception Front_error of string * Ast.pos

(* ---- core representation ----------------------------------------------------- *)

type literal =
  | L_pos of Ast.atom
  | L_neg of Ast.atom
  | L_cond of Ast.expr
  | L_reduce of creduce

and creduce = {
  result_vars : string list;
  op : core_reduce_op;
  negate_result : bool;  (** forall: flip the boolean result column *)
  arg_vars : string list;  (** argmin/argmax *)
  binding_vars : string list;
  result_tys : Value.ty list;  (** of [result_vars]; filled in by {!Typecheck} *)
  body : clause list;  (** disjuncts *)
  where : (string list * clause list) option;
}

and core_reduce_op = CR_aggregate of Ram.aggregator | CR_sampler of Ram.sampler
and clause = literal list

type crule = { head : Ast.atom; body : clause; rule_pos : Ast.pos }

type fact = {
  pred : string;
  prob : float option;
  me_group : int option;
  args : Ast.expr list;
  fact_pos : Ast.pos;
}

type t = {
  rules : crule list;
  facts : fact list;
  rel_decls : (string * (string option * string) list) list;
  type_aliases : (string * string) list;
  queries : string list;
  query_atoms : (Ast.atom * Ast.pos) list;
      (** queries with argument patterns; seed the demand transformation *)
}

(* ---- constant substitution ----------------------------------------------------- *)

let rec subst_expr env (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.E_var v -> ( match List.assoc_opt v env with Some def -> def | None -> e)
  | Ast.E_wildcard | Ast.E_const _ -> e
  | Ast.E_binop (op, a, b) -> Ast.E_binop (op, subst_expr env a, subst_expr env b)
  | Ast.E_unop (op, a) -> Ast.E_unop (op, subst_expr env a)
  | Ast.E_call (f, args) -> Ast.E_call (f, List.map (subst_expr env) args)
  | Ast.E_if (c, a, b) -> Ast.E_if (subst_expr env c, subst_expr env a, subst_expr env b)
  | Ast.E_cast (a, ty) -> Ast.E_cast (subst_expr env a, ty)

let subst_atom env (a : Ast.atom) = { a with Ast.args = List.map (subst_expr env) a.Ast.args }

let rec subst_formula env (f : Ast.formula) : Ast.formula =
  match f with
  | Ast.F_atom a -> Ast.F_atom (subst_atom env a)
  | Ast.F_neg_atom a -> Ast.F_neg_atom (subst_atom env a)
  | Ast.F_and (a, b) -> Ast.F_and (subst_formula env a, subst_formula env b)
  | Ast.F_or (a, b) -> Ast.F_or (subst_formula env a, subst_formula env b)
  | Ast.F_implies (a, b) -> Ast.F_implies (subst_formula env a, subst_formula env b)
  | Ast.F_not a -> Ast.F_not (subst_formula env a)
  | Ast.F_constraint e -> Ast.F_constraint (subst_expr env e)
  | Ast.F_reduce r ->
      (* Reduce variables shadow constants of the same name; we keep it
         simple and substitute everywhere (constants are conventionally
         upper-case, variables lower-case). *)
      Ast.F_reduce
        {
          r with
          Ast.body = subst_formula env r.Ast.body;
          where = Option.map (fun (gv, f) -> (gv, subst_formula env f)) r.Ast.where;
        }

(* ---- negation normal form -------------------------------------------------------- *)

let rec nnf (f : Ast.formula) : Ast.formula =
  match f with
  | Ast.F_atom _ | Ast.F_neg_atom _ | Ast.F_constraint _ -> f
  | Ast.F_and (a, b) -> Ast.F_and (nnf a, nnf b)
  | Ast.F_or (a, b) -> Ast.F_or (nnf a, nnf b)
  | Ast.F_implies (a, b) -> Ast.F_or (nnf (Ast.F_not a), nnf b)
  | Ast.F_reduce r -> Ast.F_reduce { r with Ast.body = nnf r.Ast.body }
  | Ast.F_not g -> (
      match g with
      | Ast.F_atom a -> Ast.F_neg_atom a
      | Ast.F_neg_atom a -> Ast.F_atom a
      | Ast.F_and (a, b) -> Ast.F_or (nnf (Ast.F_not a), nnf (Ast.F_not b))
      | Ast.F_or (a, b) -> Ast.F_and (nnf (Ast.F_not a), nnf (Ast.F_not b))
      | Ast.F_implies (a, b) -> Ast.F_and (nnf a, nnf (Ast.F_not b))
      | Ast.F_not h -> nnf h
      | Ast.F_constraint e -> Ast.F_constraint (Ast.E_unop (Foreign.Not, e))
      | Ast.F_reduce _ ->
          raise (Front_error ("cannot negate an aggregation", Ast.dummy_pos)))

(* ---- disjunctive normal form -------------------------------------------------------- *)

let aggregator_of_name pos = function
  | "count" -> Ram.Count
  | "sum" -> Ram.Sum
  | "prod" -> Ram.Prod
  | "min" -> Ram.Min
  | "max" -> Ram.Max
  | "exists" -> Ram.Exists
  | "argmin" -> Ram.Argmin
  | "argmax" -> Ram.Argmax
  | s -> raise (Front_error (Fmt.str "unknown aggregator %S" s, pos))

let sampler_of pos name k =
  match name with
  | "top" -> Ram.Top_k k
  | "categorical" -> Ram.Categorical k
  | "uniform" -> Ram.Uniform k
  | s -> raise (Front_error (Fmt.str "unknown sampler %S" s, pos))

let rec dnf pos (f : Ast.formula) : clause list =
  match f with
  | Ast.F_atom a -> [ [ L_pos a ] ]
  | Ast.F_neg_atom a -> [ [ L_neg a ] ]
  | Ast.F_constraint e -> [ [ L_cond e ] ]
  | Ast.F_and (a, b) ->
      let da = dnf pos a and db = dnf pos b in
      List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) db) da
  | Ast.F_or (a, b) -> dnf pos a @ dnf pos b
  | Ast.F_implies _ | Ast.F_not _ -> dnf pos (nnf f)
  | Ast.F_reduce r -> [ [ L_reduce (lower_reduce pos r) ] ]

and lower_reduce pos (r : Ast.reduce) : creduce =
  let where = Option.map (fun (gv, f) -> (gv, dnf pos (nnf f))) r.Ast.where in
  let op, negate_result, arg_vars, body =
    match r.Ast.op with
    | Ast.R_aggregate "forall" ->
        (* forall(x: B)  ≡  not exists(x: not B), realized by aggregating
           [exists] over the negated body and flipping the boolean result. *)
        (CR_aggregate Ram.Exists, true, [], Ast.F_not r.Ast.body)
    | Ast.R_aggregate name -> (CR_aggregate (aggregator_of_name pos name), false, [], r.Ast.body)
    | Ast.R_arg_extremum (name, arg_vars) ->
        (CR_aggregate (aggregator_of_name pos name), false, arg_vars, r.Ast.body)
    | Ast.R_sampler (name, k) -> (CR_sampler (sampler_of pos name k), false, [], r.Ast.body)
  in
  {
    result_vars = r.Ast.result_vars;
    op;
    negate_result;
    arg_vars;
    binding_vars = r.Ast.binding_vars;
    result_tys = [];
    body = dnf pos (nnf body);
    where;
  }

(* ---- program lowering ------------------------------------------------------------------ *)

let default_loader (_ : string) : string option = None

let desugar ?(load = default_loader) (program : Ast.program) : t =
  let rules = ref [] in
  let facts = ref [] in
  let rel_decls = ref [] in
  let type_aliases = ref [] in
  let queries = ref [] in
  let query_atoms = ref [] in
  let const_env = ref [] in
  let next_me_group = ref 0 in
  let next_aux = ref 0 in
  let fresh_aux prefix =
    let name = Fmt.str "__%s_%d" prefix !next_aux in
    incr next_aux;
    name
  in
  let imported = Hashtbl.create 4 in
  let rec process_decl (d : Ast.decl) =
    let pos = d.Ast.pos in
    match d.Ast.item with
    | Ast.I_import file ->
        if not (Hashtbl.mem imported file) then begin
          Hashtbl.replace imported file ();
          match load file with
          | Some src -> (
              match Parser.parse_program src with
              | prog -> List.iter process_decl prog
              | exception Parser.Parse_error (msg, p) ->
                  raise (Front_error (Fmt.str "in %s: %s" file msg, p)))
          | None -> raise (Front_error (Fmt.str "cannot import %S" file, pos))
        end
    | Ast.I_rel_type { name; fields } -> rel_decls := (name, fields) :: !rel_decls
    | Ast.I_type_alias { name; target } -> type_aliases := (name, target) :: !type_aliases
    | Ast.I_subtype { name; super } ->
        (* Subtype declarations are treated as aliases of the supertype. *)
        type_aliases := (name, super) :: !type_aliases
    | Ast.I_const decls ->
        List.iter
          (fun (name, ty, e) ->
            let e = subst_expr !const_env e in
            let e = match ty with Some ty -> Ast.E_cast (e, ty) | None -> e in
            const_env := (name, e) :: !const_env)
          decls
    | Ast.I_fact { tag; atom } ->
        let atom = subst_atom !const_env atom in
        facts :=
          { pred = atom.Ast.pred; prob = tag; me_group = None; args = atom.Ast.args; fact_pos = pos }
          :: !facts
    | Ast.I_fact_set { pred; segments } ->
        List.iter
          (fun segment ->
            let me_group =
              if List.length segment > 1 then begin
                let g = !next_me_group in
                incr next_me_group;
                Some g
              end
              else None
            in
            List.iter
              (fun { Ast.ftag; fargs } ->
                let args = List.map (subst_expr !const_env) fargs in
                facts := { pred; prob = ftag; me_group; args; fact_pos = pos } :: !facts)
              segment)
          segments
    | Ast.I_rule { tag; head; body } ->
        let head = subst_atom !const_env head in
        let body = subst_formula !const_env body in
        let clauses = dnf pos (nnf body) in
        let clauses =
          match tag with
          | None -> clauses
          | Some prob ->
              (* Probabilistic rule: guard every disjunct with a fresh tagged
                 nullary fact (paper Sec. 3.3). *)
              let aux = fresh_aux "rule_tag" in
              facts :=
                { pred = aux; prob = Some prob; me_group = None; args = []; fact_pos = pos }
                :: !facts;
              List.map (fun c -> L_pos { Ast.pred = aux; args = [] } :: c) clauses
        in
        List.iter (fun c -> rules := { head; body = c; rule_pos = pos } :: !rules) clauses
    | Ast.I_query name -> queries := name :: !queries
    | Ast.I_query_atom atom ->
        queries := atom.Ast.pred :: !queries;
        query_atoms := (subst_atom !const_env atom, pos) :: !query_atoms
  in
  List.iter process_decl program;
  {
    rules = List.rev !rules;
    facts = List.rev !facts;
    rel_decls = List.rev !rel_decls;
    type_aliases = List.rev !type_aliases;
    queries = List.rev !queries;
    query_atoms = List.rev !query_atoms;
  }

(* ---- safety (boundedness) check ------------------------------------------------------------ *)

module SSet = Set.Make (String)

(** Variables bound by a clause: positive-atom variable arguments, foreign
    predicate outputs, equality constraints [v == e] with [e] bound, and
    reduce result variables.  Iterated to a fixed point. *)
let bound_vars_of_clause (clause : clause) : SSet.t =
  let atoms_vars =
    List.concat_map
      (function
        | L_pos a ->
            List.concat_map
              (function Ast.E_var v -> [ v ] | _ -> [])
              a.Ast.args
        | _ -> [])
      clause
  in
  let bound = ref (SSet.of_list atoms_vars) in
  let rec reduce_bound (r : creduce) =
    (* Result variables, explicit group-by variables, and variables bound in
       every disjunct of the aggregation body (they surface as implicit
       group-by columns when referenced outside, paper Sec. 3.3). *)
    let body_bound =
      match List.map clause_bound r.body with
      | [] -> SSet.empty
      | first :: rest -> List.fold_left SSet.inter first rest
    in
    SSet.union
      (SSet.of_list r.result_vars)
      (SSet.union body_bound
         (match r.where with Some (gv, _) -> SSet.of_list gv | None -> SSet.empty))
  and clause_bound (clause : clause) =
    List.fold_left
      (fun acc lit ->
        match lit with
        | L_pos a ->
            SSet.union acc
              (SSet.of_list
                 (List.concat_map (function Ast.E_var v -> [ v ] | _ -> []) a.Ast.args))
        | L_reduce r -> SSet.union acc (reduce_bound r)
        | _ -> acc)
      SSet.empty clause
  in
  List.iter
    (function L_reduce r -> bound := SSet.union !bound (reduce_bound r) | _ -> ())
    clause;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (function
        | L_cond (Ast.E_binop (Foreign.Eq, Ast.E_var v, e))
          when (not (SSet.mem v !bound))
               && List.for_all (fun w -> SSet.mem w !bound) (Ast.expr_vars e) ->
            bound := SSet.add v !bound;
            changed := true
        | L_cond (Ast.E_binop (Foreign.Eq, e, Ast.E_var v))
          when (not (SSet.mem v !bound))
               && List.for_all (fun w -> SSet.mem w !bound) (Ast.expr_vars e) ->
            bound := SSet.add v !bound;
            changed := true
        | _ -> ())
      clause
  done;
  !bound

let check_rule_safety (r : crule) =
  let bound = bound_vars_of_clause r.body in
  (* Head variables must be bound. *)
  List.iter
    (fun v ->
      if not (SSet.mem v bound) then
        raise
          (Front_error
             (Fmt.str "unbound variable %S in head of rule for %s" v r.head.Ast.pred, r.rule_pos)))
    (Ast.atom_vars r.head);
  (* Negated atoms may only mention bound variables or wildcards. *)
  List.iter
    (function
      | L_neg a ->
          List.iter
            (fun v ->
              if not (SSet.mem v bound) then
                raise
                  (Front_error
                     ( Fmt.str "variable %S in negated atom %s is not bound by a positive atom" v
                         a.Ast.pred,
                       r.rule_pos )))
            (Ast.atom_vars a)
      | _ -> ())
    r.body

let check_safety (t : t) = List.iter check_rule_safety t.rules
