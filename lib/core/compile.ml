(** Compilation of core rules into SclRam query plans (the "back-IR" of
    paper Sec. 5: query planning and optimization).

    Each rule body (a conjunction of literals) is planned as a left-deep
    join tree: positive atoms are joined greedily by shared-variable count
    (hash joins at runtime), value conditions are applied as soon as their
    variables are bound (selections, or projections when the condition is a
    binding equality [v == e]), foreign predicates become flat-map joins
    once their required arguments are bound, aggregations compile to γ nodes
    over recursively compiled sub-plans, and negated atoms become anti-joins
    at the end.  Multiple rules with the same head within a stratum are
    merged by union so that stratum heads are distinct (Sec. 4.2). *)

(* All compilation failures are typed diagnostics; see {!Exec_error}. *)
let compile_error msg pos = Exec_error.raise_error (Exec_error.Compile_error { msg; pos })

module SSet = Set.Make (String)

type plan = { expr : Ram.expr; layout : string list }

let position layout v =
  let rec go i = function
    | [] -> None
    | x :: _ when String.equal x v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 layout

(* ---- value expression compilation -------------------------------------------- *)

let const_value (c : Ast.constant) : Value.t =
  match c with
  | Ast.C_int n -> Value.int Value.I32 n
  | Ast.C_float f -> Value.float Value.F32 f
  | Ast.C_bool b -> Value.bool b
  | Ast.C_char ch -> Value.char ch
  | Ast.C_str s -> Value.string s

let rec compile_vexpr pos layout (e : Ast.expr) : Ram.vexpr =
  match e with
  | Ast.E_var v -> (
      match position layout v with
      | Some i -> Ram.Access i
      | None -> compile_error (Fmt.str "unbound variable %S" v) pos)
  | Ast.E_wildcard -> compile_error "wildcard in value expression" pos
  | Ast.E_const c -> Ram.Const (const_value c)
  | Ast.E_binop (op, a, b) -> Ram.Binop (op, compile_vexpr pos layout a, compile_vexpr pos layout b)
  | Ast.E_unop (op, a) -> Ram.Unop (op, compile_vexpr pos layout a)
  | Ast.E_call (f, args) ->
      if Foreign.lookup_function f = None then
        compile_error (Fmt.str "unknown foreign function $%s" f) pos;
      Ram.Call (f, List.map (compile_vexpr pos layout) args)
  | Ast.E_if (c, a, b) ->
      Ram.If_then_else
        (compile_vexpr pos layout c, compile_vexpr pos layout a, compile_vexpr pos layout b)
  | Ast.E_cast (a, tyname) -> (
      match (Value.ty_of_name tyname, a) with
      (* a literal is built at the type it is cast to, not through i32 *)
      | Some ty, Ast.E_const (Ast.C_int n) -> Ram.Cast (ty, Ram.Const (Value.int_literal ty n))
      | Some ty, _ -> Ram.Cast (ty, compile_vexpr pos layout a)
      | None, _ -> compile_error (Fmt.str "unknown type %S" tyname) pos)

(** Evaluate a variable-free expression at compile time. *)
let eval_const pos (e : Ast.expr) : Value.t =
  match Ram.eval_vexpr Tuple.unit (compile_vexpr pos [] e) with
  | Some v -> v
  | None -> compile_error "constant expression evaluation failed" pos

(* ---- atom normalization --------------------------------------------------------- *)

type narg = N_var of string | N_const of Value.t | N_wild

(** Normalize atom arguments to variables / constants / wildcards; complex
    expressions are replaced by fresh variables with binding-equality
    conditions (handled like any other condition by the planner). *)
let normalize_atom pos ~fresh (a : Ast.atom) : narg list * Ast.expr list =
  let extra = ref [] in
  let args =
    List.map
      (fun (arg : Ast.expr) ->
        match arg with
        | Ast.E_var v -> N_var v
        | Ast.E_wildcard -> N_wild
        | _ when Ast.expr_vars arg = [] -> N_const (eval_const pos arg)
        | _ ->
            let v = fresh () in
            extra := Ast.E_binop (Foreign.Eq, Ast.E_var v, arg) :: !extra;
            N_var v)
      a.Ast.args
  in
  (args, List.rev !extra)

(* ---- plan primitives --------------------------------------------------------------- *)

(** Scan a predicate with constant selections and repeated-variable equality,
    projected down to one column per distinct variable. *)
let scan_plan pred (args : narg list) : plan =
  let base = Ram.Pred pred in
  (* selections for constants and repeated variables *)
  let conds = ref [] in
  let seen : (string * int) list ref = ref [] in
  List.iteri
    (fun i arg ->
      match arg with
      | N_const v -> conds := Ram.Binop (Foreign.Eq, Ram.Access i, Ram.Const v) :: !conds
      | N_var v -> (
          match List.assoc_opt v !seen with
          | Some j -> conds := Ram.Binop (Foreign.Eq, Ram.Access i, Ram.Access j) :: !conds
          | None -> seen := (v, i) :: !seen)
      | N_wild -> ())
    args;
  let selected = List.fold_left (fun e c -> Ram.Select (c, e)) base !conds in
  let layout = List.rev_map fst !seen in
  let positions = List.rev_map snd !seen in
  { expr = Ram.Project (List.map (fun i -> Ram.Access i) positions, selected); layout }

(** Join two plans on their shared variables; output layout is
    [a.layout ++ (b.layout \ shared)]. *)
let join_plans (a : plan) (b : plan) : plan =
  let shared = List.filter (fun v -> List.mem v a.layout) b.layout in
  let lkeys = List.map (fun v -> Option.get (position a.layout v)) shared in
  let rkeys = List.map (fun v -> Option.get (position b.layout v)) shared in
  let joined = Ram.Join { lkeys; rkeys; left = a.expr; right = b.expr } in
  let la = List.length a.layout in
  let keep_b =
    List.filteri (fun _ v -> not (List.mem v a.layout)) b.layout
    |> List.map (fun v -> la + Option.get (position b.layout v))
  in
  let mapping =
    List.init la (fun i -> Ram.Access i) @ List.map (fun i -> Ram.Access i) keep_b
  in
  (* When nothing is shared, the mapping is the identity over the joined
     width — skip the no-op Project instead of paying a copy per tuple. *)
  let identity =
    List.for_all2
      (fun i m -> m = Ram.Access i)
      (List.init (List.length mapping) Fun.id)
      mapping
    && List.length mapping = la + List.length b.layout
  in
  {
    expr = (if identity then joined else Ram.Project (mapping, joined));
    layout = a.layout @ List.filter (fun v -> not (List.mem v a.layout)) b.layout;
  }

(** Project a plan down to [target] variables (which must all be bound). *)
let project_to pos (p : plan) (target : string list) : plan =
  if target = p.layout then p
  else
    let mapping =
      List.map
        (fun v ->
          match position p.layout v with
          | Some i -> Ram.Access i
          | None -> compile_error (Fmt.str "unbound variable %S in projection" v) pos)
        target
    in
    { expr = Ram.Project (mapping, p.expr); layout = target }

(* ---- clause compilation -------------------------------------------------------------- *)

(* Required-bound argument positions of foreign predicates. *)
let foreign_required = function
  | "range" -> [ 0; 1 ]
  | "string_chars" -> [ 0 ]
  | "succ" -> []
  | _ -> []

let rec compile_clause pos ~fresh ~(outer_vars : SSet.t) (clause : Front.clause) : plan =
  (* Partition and normalize literals. *)
  let scans = ref [] in
  let foreigns = ref [] in
  let negs = ref [] in
  let conds = ref [] in
  let reduces = ref [] in
  List.iter
    (function
      | Front.L_pos a when Foreign.is_foreign_predicate a.Ast.pred ->
          let args, extra = normalize_atom pos ~fresh a in
          foreigns := (a.Ast.pred, args) :: !foreigns;
          conds := extra @ !conds
      | Front.L_pos a ->
          let args, extra = normalize_atom pos ~fresh a in
          scans := (a.Ast.pred, args) :: !scans;
          conds := extra @ !conds
      | Front.L_neg a ->
          let args, extra = normalize_atom pos ~fresh a in
          if extra <> [] then
            compile_error "complex expressions in negated atoms are not supported" pos;
          negs := (a.Ast.pred, args) :: !negs
      | Front.L_cond e -> conds := e :: !conds
      | Front.L_reduce r -> reduces := r :: !reduces)
    clause;
  let scans = ref (List.rev !scans) in
  let foreigns = ref (List.rev !foreigns) in
  let negs = List.rev !negs in
  let conds = ref (List.rev !conds) in
  let reduces = ref (List.rev !reduces) in
  let plan : plan option ref = ref None in
  let layout () = match !plan with Some p -> p.layout | None -> [] in
  let is_bound v = List.mem v (layout ()) in
  let merge (p : plan) =
    plan := Some (match !plan with None -> p | Some cur -> join_plans cur p)
  in
  (* Apply conditions as they become evaluable; binding equalities extend the
     layout with a computed column. *)
  let rec apply_ready_conds () =
    let progressed = ref false in
    conds :=
      List.filter
        (fun (c : Ast.expr) ->
          let vars = Ast.expr_vars c in
          let binding =
            match c with
            | Ast.E_binop (Foreign.Eq, Ast.E_var v, e)
              when (not (is_bound v)) && List.for_all is_bound (Ast.expr_vars e) ->
                Some (v, e)
            | Ast.E_binop (Foreign.Eq, e, Ast.E_var v)
              when (not (is_bound v)) && List.for_all is_bound (Ast.expr_vars e) ->
                Some (v, e)
            | _ -> None
          in
          match binding with
          | Some (v, e) ->
              let cur = match !plan with Some p -> p | None -> { expr = Ram.Singleton; layout = [] } in
              let n = List.length cur.layout in
              let mapping =
                List.init n (fun i -> Ram.Access i) @ [ compile_vexpr pos cur.layout e ]
              in
              plan := Some { expr = Ram.Project (mapping, cur.expr); layout = cur.layout @ [ v ] };
              progressed := true;
              false
          | None ->
              if List.for_all is_bound vars then begin
                let cur =
                  match !plan with Some p -> p | None -> { expr = Ram.Singleton; layout = [] }
                in
                plan :=
                  Some { cur with expr = Ram.Select (compile_vexpr pos cur.layout c, cur.expr) };
                progressed := true;
                false
              end
              else true)
        !conds;
    if !progressed then apply_ready_conds ()
  in
  (* Phase 1: positive atoms, greedily by shared-variable count. *)
  let scan_shared (_, args) =
    List.length
      (List.filter (function N_var v -> is_bound v | _ -> false) args)
  in
  while !scans <> [] do
    let best =
      List.fold_left
        (fun acc s -> match acc with Some b when scan_shared b >= scan_shared s -> acc | _ -> Some s)
        None !scans
    in
    let (pred, args) = Option.get best in
    scans := List.filter (fun s -> s != Option.get best) !scans;
    merge (scan_plan pred args);
    apply_ready_conds ()
  done;
  (* Phase 2: foreign predicates, scheduled once required args are bound. *)
  let foreign_ready (name, args) =
    List.for_all
      (fun i ->
        match List.nth args i with
        | N_const _ -> true
        | N_var v -> is_bound v
        | N_wild -> false)
      (foreign_required name)
  in
  let progress = ref true in
  while !foreigns <> [] && !progress do
    progress := false;
    match List.find_opt foreign_ready !foreigns with
    | None -> ()
    | Some ((name, args) as f) ->
        foreigns := List.filter (fun g -> g != f) !foreigns;
        progress := true;
        let cur = match !plan with Some p -> p | None -> { expr = Ram.Singleton; layout = [] } in
        let fp_args, new_vars =
          List.fold_left
            (fun (acc, nv) arg ->
              match arg with
              | N_const v -> (Ram.F_const v :: acc, nv)
              | N_var v when List.mem v cur.layout ->
                  (Ram.F_col (Option.get (position cur.layout v)) :: acc, nv)
              | N_var v -> (Ram.F_free :: acc, nv @ [ v ])
              | N_wild -> (Ram.F_free :: acc, nv @ [ fresh () ]))
            ([], []) args
        in
        let expr = Ram.Foreign_join { name; args = List.rev fp_args; left = cur.expr } in
        plan := Some { expr; layout = cur.layout @ new_vars };
        apply_ready_conds ()
  done;
  if !foreigns <> [] then
    compile_error
      (Fmt.str "foreign predicate %s cannot be scheduled (unbound required arguments)"
         (fst (List.hd !foreigns)))
      pos;
  (* Phase 3: aggregations.  A reduce's implicit group-by variables are the
     body variables referenced {e outside} it: in the head ([outer_vars]) or
     in any sibling literal of this clause. *)
  let sibling_vars (r : Front.creduce) =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Front.L_reduce r' when r' == r -> acc
        | Front.L_pos a | Front.L_neg a -> SSet.union acc (SSet.of_list (Ast.atom_vars a))
        | Front.L_cond e -> SSet.union acc (SSet.of_list (Ast.expr_vars e))
        | Front.L_reduce r' ->
            SSet.union acc
              (SSet.of_list
                 (r'.Front.result_vars
                 @ match r'.Front.where with Some (gv, _) -> gv | None -> [])))
      SSet.empty clause
  in
  List.iter
    (fun (r : Front.creduce) ->
      let outer = SSet.union outer_vars (sibling_vars r) in
      merge (compile_reduce pos ~fresh ~outer_vars:outer r);
      apply_ready_conds ())
    !reduces;
  reduces := [];
  apply_ready_conds ();
  if !conds <> [] then
    compile_error
      (Fmt.str "condition mentions unbound variables: %a" Ast.pp_expr (List.hd !conds))
      pos;
  (* Phase 4: negated atoms as anti-joins. *)
  let final =
    List.fold_left
      (fun (cur : plan) (pred, args) ->
        (* Right side: scan with constants selected, projected to the columns
           of bound shared variables. *)
        let right = scan_plan pred args in
        let shared = List.filter (fun v -> List.mem v cur.layout) right.layout in
        let right = project_to pos right shared in
        let lkeys = List.map (fun v -> Option.get (position cur.layout v)) shared in
        let rkeys = List.init (List.length shared) (fun i -> i) in
        { cur with expr = Ram.Antijoin { lkeys; rkeys; left = cur.expr; right = right.expr } })
      (match !plan with Some p -> p | None -> { expr = Ram.Singleton; layout = [] })
      negs
  in
  final

and compile_reduce pos ~fresh ~outer_vars (r : Front.creduce) : plan =
  (* Group variables: explicit where-clause variables, or implicitly the
     body variables also used outside the aggregation (paper Sec. 3.3). *)
  let body_bound =
    List.fold_left
      (fun acc clause -> SSet.union acc (Front.bound_vars_of_clause clause))
      SSet.empty r.Front.body
  in
  let local = SSet.of_list (r.Front.binding_vars @ r.Front.arg_vars @ r.Front.result_vars) in
  let group_vars =
    match r.Front.where with
    | Some (gv, _) -> gv
    | None -> SSet.elements (SSet.diff (SSet.inter body_bound outer_vars) local)
  in
  let target = group_vars @ r.Front.arg_vars @ r.Front.binding_vars in
  (* Compile the body disjuncts and project each to the common layout.  The
     where clause (when present) is conjoined into the body so that its
     non-group variables correlate with body variables (e.g. CLEVR's
     [count(o: eval_objs(f, o) where e: count_expr(e, f))], where [f] links
     the two); the standalone where compilation below supplies the domain so
     empty groups still aggregate. *)
  let body_clauses =
    match r.Front.where with
    | None -> r.Front.body
    | Some (_, where_clauses) ->
        List.concat_map (fun b -> List.map (fun w -> b @ w) where_clauses) r.Front.body
  in
  let body_plan =
    match
      List.map
        (fun clause ->
          let sub = compile_clause pos ~fresh ~outer_vars:(SSet.of_list target) clause in
          project_to pos sub target)
        body_clauses
    with
    | [] -> compile_error "empty aggregation body" pos
    | first :: rest ->
        List.fold_left
          (fun acc p -> { acc with expr = Ram.Union (acc.expr, p.expr) })
          first rest
  in
  let key_len = List.length group_vars in
  let group =
    match r.Front.where with
    | Some (gv, clauses) ->
        let dom =
          match
            List.map
              (fun clause ->
                let sub = compile_clause pos ~fresh ~outer_vars:(SSet.of_list gv) clause in
                project_to pos sub gv)
              clauses
          with
          | [] -> compile_error "empty where clause" pos
          | first :: rest ->
              List.fold_left (fun acc p -> { acc with expr = Ram.Union (acc.expr, p.expr) }) first rest
        in
        Ram.Domain dom.expr
    | None -> if key_len = 0 then Ram.No_group else Ram.Implicit
  in
  let result_layout = group_vars @ r.Front.result_vars in
  let expr =
    match r.Front.op with
    | Front.CR_aggregate agg ->
        Ram.Aggregate
          {
            agg;
            key_len;
            arg_len = List.length r.Front.arg_vars;
            result_ty = (match r.Front.result_tys with [ ty ] -> Some ty | _ -> None);
            group;
            body = body_plan.expr;
          }
    | Front.CR_sampler sampler -> Ram.Sample { sampler; key_len; group; body = body_plan.expr }
  in
  let expr =
    if r.Front.negate_result then begin
      (* forall: flip the boolean result column (world-exact, since exists
         produces both outcomes with their tags). *)
      let n = List.length result_layout in
      let mapping =
        List.init n (fun i ->
            if i = n - 1 then Ram.Unop (Foreign.Not, Ram.Access i) else Ram.Access i)
      in
      Ram.Project (mapping, expr)
    end
    else expr
  in
  { expr; layout = result_layout }

(* ---- rules and programs ------------------------------------------------------------------ *)

let compile_rule (r : Front.crule) : string * Ram.expr =
  let pos = r.Front.rule_pos in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Fmt.str "__v%d" !counter
  in
  let head_vars = SSet.of_list (Ast.atom_vars r.Front.head) in
  let plan = compile_clause pos ~fresh ~outer_vars:head_vars r.Front.body in
  let head_mapping = List.map (compile_vexpr pos plan.layout) r.Front.head.Ast.args in
  let body = Ram.Project (head_mapping, plan.expr) in
  (* Demand predicates carry pure demand: overwrite their tags with 1 so
     they never weaken the tags of the tuples they gate (Appendix B.2). *)
  let body = if Demand.is_demand_pred r.Front.head.Ast.pred then Ram.One_overwrite body else body in
  (r.Front.head.Ast.pred, body)

(** Compile stratified core rules into a SclRam program.  Rules with the
    same head within a stratum are unioned into a single RAM rule. *)
let compile_strata (strata : Front.crule list list) ~(outputs : string list) : Ram.program =
  let compile_stratum (rules : Front.crule list) : Ram.stratum =
    let compiled = List.map compile_rule rules in
    let grouped =
      Scallop_utils.Listx.group_by (module String) fst compiled
    in
    let ram_rules =
      List.map
        (fun (head, bodies) ->
          let exprs = List.map snd bodies in
          let body =
            match exprs with
            | [] -> assert false
            | first :: rest -> List.fold_left (fun a b -> Ram.Union (a, b)) first rest
          in
          { Ram.head; body })
        grouped
    in
    let heads = List.map (fun (r : Ram.rule) -> r.Ram.head) ram_rules in
    let recursive =
      List.exists
        (fun (r : Ram.rule) ->
          List.exists (fun p -> List.mem p heads) (Ram.predicates_of_expr r.Ram.body))
        ram_rules
    in
    { Ram.rules = ram_rules; recursive }
  in
  { Ram.strata = List.map compile_stratum strata; outputs }
