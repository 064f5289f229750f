(** Type inference and elaboration (the front-IR type analysis of Sec. 5).

    Relations are typed by declaration ([type p(i32, String)]) or by
    inference: every undeclared column gets a unification variable, rule and
    fact traversal generates equality and class constraints (integer, float,
    numeric, boolean), and unresolved variables are defaulted (integers to
    i32, floats to f32) as in the paper's example where untyped columns
    default to an integer type.

    After solving, [elaborate] rewrites the core rules so that every numeric
    literal carries an explicit cast to its resolved type — downstream
    compilation then never needs the typing environment — and facts are
    lowered to properly typed value tuples. *)

exception Type_error of string * Ast.pos

type cls = Any | Num | Int_ | Flt | Boolish | Addable
(** [Addable] admits numerics and String (for [+] concatenation). *)

type node = { mutable parent : int option; mutable prim : Value.ty option; mutable cls : cls }

type solver = { mutable nodes : node array; mutable count : int }

let new_solver () = { nodes = Array.init 64 (fun _ -> { parent = None; prim = None; cls = Any }); count = 0 }

let fresh_var s =
  if s.count >= Array.length s.nodes then begin
    let bigger = Array.init (2 * Array.length s.nodes) (fun _ -> { parent = None; prim = None; cls = Any }) in
    Array.blit s.nodes 0 bigger 0 (Array.length s.nodes);
    s.nodes <- bigger
  end;
  let id = s.count in
  s.nodes.(id) <- { parent = None; prim = None; cls = Any };
  s.count <- id + 1;
  id

let rec find s i =
  match s.nodes.(i).parent with
  | None -> i
  | Some p ->
      let r = find s p in
      s.nodes.(i).parent <- Some r;
      r

let cls_name = function
  | Any -> "any"
  | Num -> "numeric"
  | Int_ -> "integer"
  | Flt -> "float"
  | Boolish -> "bool"
  | Addable -> "numeric-or-String"

let cls_admits c (ty : Value.ty) =
  match c with
  | Any -> true
  | Num -> Value.is_numeric_ty ty
  | Int_ -> Value.is_integer_ty ty
  | Flt -> Value.is_float_ty ty
  | Boolish -> ty = Value.Bool
  | Addable -> Value.is_numeric_ty ty || ty = Value.Str

let merge_cls pos a b =
  let fail () =
    raise
      (Type_error (Fmt.str "incompatible type classes %s and %s" (cls_name a) (cls_name b), pos))
  in
  let rank = function Any -> 0 | Addable -> 1 | Num -> 2 | Int_ -> 3 | Flt -> 3 | Boolish -> 4 in
  (* order so that [a] is the less specific class *)
  let a, b = if rank a <= rank b then (a, b) else (b, a) in
  match (a, b) with
  | Any, c -> c
  | Addable, (Addable | Num | Int_ | Flt) -> b
  | Num, (Num | Int_ | Flt) -> b
  | Int_, Int_ | Flt, Flt | Boolish, Boolish -> b
  | _ -> fail ()

let constrain_cls s pos i c =
  let r = find s i in
  let n = s.nodes.(r) in
  (match n.prim with
  | Some ty ->
      if not (cls_admits c ty) then
        raise (Type_error (Fmt.str "type %s is not %s" (Value.ty_name ty) (cls_name c), pos))
  | None -> ());
  n.cls <- merge_cls pos n.cls c

let assign_prim s pos i ty =
  let r = find s i in
  let n = s.nodes.(r) in
  (match n.prim with
  | Some ty' when not (Value.equal_ty ty ty') ->
      raise
        (Type_error
           (Fmt.str "type mismatch: %s vs %s" (Value.ty_name ty) (Value.ty_name ty'), pos))
  | _ -> ());
  if not (cls_admits n.cls ty) then
    raise (Type_error (Fmt.str "type %s is not %s" (Value.ty_name ty) (cls_name n.cls), pos));
  n.prim <- Some ty

let unify s pos i j =
  let ri = find s i and rj = find s j in
  if ri <> rj then begin
    let ni = s.nodes.(ri) and nj = s.nodes.(rj) in
    let cls = merge_cls pos ni.cls nj.cls in
    let prim =
      match (ni.prim, nj.prim) with
      | Some a, Some b ->
          if Value.equal_ty a b then Some a
          else
            raise
              (Type_error
                 (Fmt.str "type mismatch: %s vs %s" (Value.ty_name a) (Value.ty_name b), pos))
      | Some a, None | None, Some a ->
          if not (cls_admits cls a) then
            raise (Type_error (Fmt.str "type %s is not %s" (Value.ty_name a) (cls_name cls), pos));
          Some a
      | None, None -> None
    in
    nj.parent <- Some ri;
    ni.cls <- cls;
    ni.prim <- prim
  end

let resolved s i : Value.ty =
  let r = find s i in
  let n = s.nodes.(r) in
  match n.prim with
  | Some ty -> ty
  | None -> (
      (* defaulting *)
      match n.cls with Flt -> Value.F32 | Boolish -> Value.Bool | _ -> Value.I32)

(* ---- relation signatures -------------------------------------------------------- *)

type result = {
  rel_types : (string, Value.ty array) Hashtbl.t;
  rules : Front.crule list;  (** elaborated: literals carry explicit casts *)
  facts : (string * float option * int option * Tuple.t) list;
  queries : string list;
}

module SMap = Map.Make (String)

let resolve_alias aliases name =
  let rec go name seen =
    if List.mem name seen then None
    else
      match Value.ty_of_name name with
      | Some ty -> Some ty
      | None -> (
          match List.assoc_opt name aliases with
          | Some target -> go target (name :: seen)
          | None -> None)
  in
  go name []

(* FF result/argument typing: a pragmatic table for the built-in functions. *)
let ff_signature = function
  | "hash" -> `Ret (Value.U64)
  | "string_concat" | "substring" | "string_upper" | "string_lower" -> `Ret Value.Str
  | "string_length" -> `Ret Value.USize
  | "string_char_at" -> `Ret Value.Char
  | "abs" | "min" | "max" | "pow" -> `SameAsArg0
  | "sqrt" | "exp" | "log" -> `FloatArg0
  | _ -> `Unknown

let check (front : Front.t) : result =
  let s = new_solver () in
  let aliases = front.Front.type_aliases in
  (* Column type variables per relation. *)
  let rel_slots : int array SMap.t ref = ref SMap.empty in
  let declare pos name arity =
    match SMap.find_opt name !rel_slots with
    | Some slots ->
        if Array.length slots <> arity then
          raise
            (Type_error
               ( Fmt.str "relation %s used with arity %d but has arity %d" name arity
                   (Array.length slots),
                 pos ));
        slots
    | None ->
        let slots = Array.init arity (fun _ -> fresh_var s) in
        rel_slots := SMap.add name slots !rel_slots;
        slots
  in
  (* Declared relation types. *)
  List.iter
    (fun (name, fields) ->
      let slots = declare Ast.dummy_pos name (List.length fields) in
      List.iteri
        (fun i (_, tyname) ->
          match resolve_alias aliases tyname with
          | Some ty -> assign_prim s Ast.dummy_pos slots.(i) ty
          | None -> raise (Type_error (Fmt.str "unknown type %S" tyname, Ast.dummy_pos)))
        fields)
    front.Front.rel_decls;
  (* Foreign predicates have fixed signatures. *)
  let foreign_slot pos name i =
    match name with
    | "range" ->
        (* all three arguments share an integer type *)
        let slots = declare pos ("$range") 3 in
        constrain_cls s pos slots.(0) Int_;
        unify s pos slots.(0) slots.(1);
        unify s pos slots.(0) slots.(2);
        slots.(i)
    | "string_chars" ->
        let slots = declare pos "$string_chars" 3 in
        assign_prim s pos slots.(0) Value.Str;
        assign_prim s pos slots.(1) Value.USize;
        assign_prim s pos slots.(2) Value.Char;
        slots.(i)
    | "succ" ->
        let slots = declare pos "$succ" 2 in
        constrain_cls s pos slots.(0) Int_;
        unify s pos slots.(0) slots.(1);
        slots.(i)
    | _ -> raise (Type_error (Fmt.str "unknown foreign predicate %s" name, pos))
  in
  (* Expression typing. *)
  let rec type_expr pos env (e : Ast.expr) : int =
    match e with
    | Ast.E_var v -> (
        match Hashtbl.find_opt env v with
        | Some tv -> tv
        | None ->
            let tv = fresh_var s in
            Hashtbl.replace env v tv;
            tv)
    | Ast.E_wildcard -> fresh_var s
    | Ast.E_const c ->
        let tv = fresh_var s in
        (match c with
        | Ast.C_int _ -> constrain_cls s pos tv Int_
        | Ast.C_float _ -> constrain_cls s pos tv Flt
        | Ast.C_bool _ -> assign_prim s pos tv Value.Bool
        | Ast.C_char _ -> assign_prim s pos tv Value.Char
        | Ast.C_str _ -> assign_prim s pos tv Value.Str);
        tv
    | Ast.E_binop (op, a, b) -> (
        let ta = type_expr pos env a and tb = type_expr pos env b in
        match op with
        | Foreign.Add ->
            unify s pos ta tb;
            constrain_cls s pos ta Addable;
            ta
        | Foreign.Sub | Foreign.Mul | Foreign.Div | Foreign.Mod ->
            unify s pos ta tb;
            constrain_cls s pos ta Num;
            ta
        | Foreign.Land | Foreign.Lor ->
            assign_prim s pos ta Value.Bool;
            assign_prim s pos tb Value.Bool;
            ta
        | Foreign.Eq | Foreign.Neq | Foreign.Lt | Foreign.Leq | Foreign.Gt | Foreign.Geq ->
            unify s pos ta tb;
            let tv = fresh_var s in
            assign_prim s pos tv Value.Bool;
            tv)
    | Ast.E_unop (Foreign.Not, a) ->
        let ta = type_expr pos env a in
        assign_prim s pos ta Value.Bool;
        ta
    | Ast.E_unop (Foreign.Neg, a) ->
        let ta = type_expr pos env a in
        constrain_cls s pos ta Num;
        ta
    | Ast.E_call (f, args) -> (
        let targs = List.map (type_expr pos env) args in
        match ff_signature f with
        | `Ret ty ->
            let tv = fresh_var s in
            assign_prim s pos tv ty;
            tv
        | `SameAsArg0 -> (
            match targs with
            | t0 :: _ ->
                constrain_cls s pos t0 Num;
                t0
            | [] -> raise (Type_error (Fmt.str "$%s requires arguments" f, pos)))
        | `FloatArg0 -> (
            match targs with
            | t0 :: _ ->
                constrain_cls s pos t0 Flt;
                t0
            | [] -> raise (Type_error (Fmt.str "$%s requires arguments" f, pos)))
        | `Unknown -> raise (Type_error (Fmt.str "unknown foreign function $%s" f, pos)))
    | Ast.E_if (c, a, b) ->
        let tc = type_expr pos env c in
        assign_prim s pos tc Value.Bool;
        let ta = type_expr pos env a and tb = type_expr pos env b in
        unify s pos ta tb;
        ta
    | Ast.E_cast (a, tyname) -> (
        ignore (type_expr pos env a);
        match resolve_alias aliases tyname with
        | Some ty ->
            let tv = fresh_var s in
            assign_prim s pos tv ty;
            tv
        | None -> raise (Type_error (Fmt.str "unknown type %S in cast" tyname, pos)))
  in
  let type_atom pos env (a : Ast.atom) =
    if Foreign.is_foreign_predicate a.Ast.pred then
      List.iteri
        (fun i arg ->
          let t = type_expr pos env arg in
          unify s pos t (foreign_slot pos a.Ast.pred i))
        a.Ast.args
    else begin
      let slots = declare pos a.Ast.pred (List.length a.Ast.args) in
      List.iteri
        (fun i arg ->
          let t = type_expr pos env arg in
          unify s pos t slots.(i))
        a.Ast.args
    end
  in
  let rec type_literal pos env = function
    | Front.L_pos a | Front.L_neg a -> type_atom pos env a
    | Front.L_cond e ->
        let t = type_expr pos env e in
        assign_prim s pos t Value.Bool
    | Front.L_reduce r -> type_reduce pos env r
  and type_reduce pos env (r : Front.creduce) =
    List.iter (List.iter (type_literal pos env)) r.Front.body;
    (match r.Front.where with
    | Some (_, clauses) -> List.iter (List.iter (type_literal pos env)) clauses
    | None -> ());
    let tv_of v = type_expr pos env (Ast.E_var v) in
    let unify_lists la lb =
      if List.length la <> List.length lb then
        raise (Type_error ("aggregation variable count mismatch", pos));
      List.iter2 (fun a b -> unify s pos (tv_of a) (tv_of b)) la lb
    in
    match r.Front.op with
    | Front.CR_aggregate Ram.Count ->
        List.iter (fun v -> assign_prim s pos (tv_of v) Value.USize) r.Front.result_vars
    | Front.CR_aggregate (Ram.Sum | Ram.Prod) -> (
        match (r.Front.result_vars, r.Front.binding_vars) with
        | [ rv ], [ bv ] ->
            unify s pos (tv_of rv) (tv_of bv);
            constrain_cls s pos (tv_of rv) Num
        | _ -> raise (Type_error ("sum/prod take exactly one binding and result variable", pos)))
    | Front.CR_aggregate (Ram.Min | Ram.Max) -> unify_lists r.Front.result_vars r.Front.binding_vars
    | Front.CR_aggregate (Ram.Argmin | Ram.Argmax) -> unify_lists r.Front.result_vars r.Front.arg_vars
    | Front.CR_aggregate Ram.Exists ->
        List.iter (fun v -> assign_prim s pos (tv_of v) Value.Bool) r.Front.result_vars
    | Front.CR_sampler _ -> unify_lists r.Front.result_vars r.Front.binding_vars
  in
  (* Rules: each rule gets its own variable environment.  We keep the
     environments so elaboration can resolve variable types. *)
  let rule_envs =
    List.map
      (fun (r : Front.crule) ->
        let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter (type_literal r.Front.rule_pos env) r.Front.body;
        type_atom r.Front.rule_pos env r.Front.head;
        env)
      front.Front.rules
  in
  (* Facts.  A literal constrains its column the same way every time, so
     of a fact whose arguments are all literals, only the first literal of
     each kind in each column is typed; the rest could raise nothing the
     first did not.  Facts with arithmetic are typed whole. *)
  let typed_literals = Hashtbl.create 64 in
  let kind = function
    | Ast.C_int _ -> 0
    | Ast.C_float _ -> 1
    | Ast.C_bool _ -> 2
    | Ast.C_char _ -> 3
    | Ast.C_str _ -> 4
  in
  (* a (column type variable, literal kind) pair as one int *)
  let key slot c = (5 * slot) + kind c in
  let literal = function Ast.E_const _ -> true | _ -> false in
  List.iter
    (fun (f : Front.fact) ->
      let pos = f.Front.fact_pos and pred = f.Front.pred in
      (match f.Front.prob with
      | Some p when not (p >= 0.0 && p <= 1.0) ->
          raise (Type_error (Fmt.str "probability %g is not a number in [0, 1]" p, pos))
      | _ -> ());
      if Foreign.is_foreign_predicate pred || not (List.for_all literal f.Front.args) then
        type_atom pos (Hashtbl.create 4) { Ast.pred; args = f.Front.args }
      else
        let slots = declare pos pred (List.length f.Front.args) in
        List.iteri
          (fun i arg ->
            match arg with
            | Ast.E_const c when not (Hashtbl.mem typed_literals (key slots.(i) c)) ->
                unify s pos (type_expr pos (Hashtbl.create 1) arg) slots.(i);
                Hashtbl.replace typed_literals (key slots.(i) c) ()
            | _ -> ())
          f.Front.args)
    front.Front.facts;
  (* ---- elaboration ------------------------------------------------------- *)
  let rel_types = Hashtbl.create 16 in
  SMap.iter
    (fun name slots ->
      if String.length name > 0 && name.[0] <> '$' then
        Hashtbl.replace rel_types name (Array.map (resolved s) slots))
    !rel_slots;
  (* Rewriting expressions: infer the expression's resolved type top-down and
     wrap numeric literals in casts to it. *)
  let rec elab_expr env (expected : Value.ty option) (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.E_var _ | Ast.E_wildcard -> e
    | Ast.E_const (Ast.C_int _) -> (
        match expected with
        | Some ty when Value.is_integer_ty ty && ty <> Value.I32 ->
            Ast.E_cast (e, Value.ty_name ty)
        | Some ty when Value.is_float_ty ty -> Ast.E_cast (e, Value.ty_name ty)
        | _ -> e)
    | Ast.E_const (Ast.C_float _) -> (
        match expected with
        | Some ty when Value.is_float_ty ty && ty <> Value.F32 -> Ast.E_cast (e, Value.ty_name ty)
        | _ -> e)
    | Ast.E_const _ -> e
    | Ast.E_binop (op, a, b) ->
        let sub_expected =
          match op with
          | Foreign.Add | Foreign.Sub | Foreign.Mul | Foreign.Div | Foreign.Mod -> expected
          | Foreign.Eq | Foreign.Neq | Foreign.Lt | Foreign.Leq | Foreign.Gt | Foreign.Geq -> (
              (* both sides share a type: take a variable side's resolved type *)
              match expr_resolved env a with
              | Some ty -> Some ty
              | None -> expr_resolved env b)
          | _ -> None
        in
        let sub_expected =
          match sub_expected with
          | Some _ -> sub_expected
          | None -> (
              match expr_resolved env a with Some ty -> Some ty | None -> expr_resolved env b)
        in
        Ast.E_binop (op, elab_expr env sub_expected a, elab_expr env sub_expected b)
    | Ast.E_unop (op, a) -> Ast.E_unop (op, elab_expr env expected a)
    | Ast.E_call (f, args) -> Ast.E_call (f, List.map (elab_expr env None) args)
    | Ast.E_if (c, a, b) ->
        Ast.E_if (elab_expr env None c, elab_expr env expected a, elab_expr env expected b)
    | Ast.E_cast (a, ty) -> Ast.E_cast (elab_expr env None a, ty)
  and expr_resolved env (e : Ast.expr) : Value.ty option =
    match e with
    | Ast.E_var v -> Option.map (resolved s) (Hashtbl.find_opt env v)
    | Ast.E_cast (_, tyname) -> resolve_alias aliases tyname
    | Ast.E_binop ((Foreign.Add | Foreign.Sub | Foreign.Mul | Foreign.Div | Foreign.Mod), a, b)
      -> (
        match expr_resolved env a with Some ty -> Some ty | None -> expr_resolved env b)
    | _ -> None
  in
  let elab_atom env (a : Ast.atom) : Ast.atom =
    let coltypes =
      match Hashtbl.find_opt rel_types a.Ast.pred with
      | Some tys -> Array.to_list (Array.map Option.some tys)
      | None -> (
          match a.Ast.pred with
          | "range" | "succ" -> (
              (* use the shared foreign slots *)
              match SMap.find_opt ("$" ^ a.Ast.pred) !rel_slots with
              | Some slots -> Array.to_list (Array.map (fun i -> Some (resolved s i)) slots)
              | None -> List.map (fun _ -> None) a.Ast.args)
          | "string_chars" -> [ Some Value.Str; Some Value.USize; Some Value.Char ]
          | _ -> List.map (fun _ -> None) a.Ast.args)
    in
    { a with Ast.args = List.map2 (fun exp arg -> elab_expr env exp arg) coltypes a.Ast.args }
  in
  let rec elab_literal env = function
    | Front.L_pos a -> Front.L_pos (elab_atom env a)
    | Front.L_neg a -> Front.L_neg (elab_atom env a)
    | Front.L_cond e -> Front.L_cond (elab_expr env None e)
    | Front.L_reduce r ->
        Front.L_reduce
          {
            r with
            Front.result_tys =
              List.map (fun v -> resolved s (Hashtbl.find env v)) r.Front.result_vars;
            body = List.map (List.map (elab_literal env)) r.Front.body;
            where =
              Option.map
                (fun (gv, cl) -> (gv, List.map (List.map (elab_literal env)) cl))
                r.Front.where;
          }
  in
  let rules =
    List.map2
      (fun (r : Front.crule) env ->
        {
          r with
          Front.head = elab_atom env r.Front.head;
          body = List.map (elab_literal env) r.Front.body;
        })
      front.Front.rules rule_envs
  in
  (* ---- fact lowering ------------------------------------------------------- *)
  let eval_const_expr pos (expected : Value.ty) (e : Ast.expr) : Value.t =
    (* Facts may use constant arithmetic; compile through the RAM evaluator
       against the empty tuple. *)
    let rec to_vexpr (e : Ast.expr) : Ram.vexpr =
      match e with
      | Ast.E_const (Ast.C_int n) -> Ram.Const (Value.int Value.I32 n)
      | Ast.E_const (Ast.C_float f) -> Ram.Const (Value.float Value.F32 f)
      | Ast.E_const (Ast.C_bool b) -> Ram.Const (Value.bool b)
      | Ast.E_const (Ast.C_char c) -> Ram.Const (Value.char c)
      | Ast.E_const (Ast.C_str str) -> Ram.Const (Value.string str)
      | Ast.E_binop (op, a, b) -> Ram.Binop (op, to_vexpr a, to_vexpr b)
      | Ast.E_unop (op, a) -> Ram.Unop (op, to_vexpr a)
      | Ast.E_call (f, args) -> Ram.Call (f, List.map to_vexpr args)
      | Ast.E_if (c, a, b) -> Ram.If_then_else (to_vexpr c, to_vexpr a, to_vexpr b)
      | Ast.E_cast (a, tyname) -> (
          match (resolve_alias aliases tyname, a) with
          | Some ty, Ast.E_const (Ast.C_int n) -> Ram.Cast (ty, Ram.Const (Value.int_literal ty n))
          | Some ty, _ -> Ram.Cast (ty, to_vexpr a)
          | None, _ -> raise (Type_error (Fmt.str "unknown type %S" tyname, pos)))
      | Ast.E_var v -> raise (Type_error (Fmt.str "variable %S in fact" v, pos))
      | Ast.E_wildcard -> raise (Type_error ("wildcard in fact", pos))
    in
    (* Integer literals inside fact tuples adopt the column type directly. *)
    let rec retype (e : Ast.expr) : Ast.expr =
      match e with
      | Ast.E_const (Ast.C_int _) when Value.is_integer_ty expected || Value.is_float_ty expected
        ->
          Ast.E_cast (e, Value.ty_name expected)
      | Ast.E_const (Ast.C_float _) when Value.is_float_ty expected ->
          Ast.E_cast (e, Value.ty_name expected)
      | Ast.E_binop (op, a, b) -> Ast.E_binop (op, retype a, retype b)
      | Ast.E_unop (op, a) -> Ast.E_unop (op, retype a)
      | _ -> e
    in
    match Ram.eval_vexpr Tuple.unit (to_vexpr (retype e)) with
    | Some v -> (
        match Value.cast expected v with
        | Some v -> v
        | None ->
            raise
              (Type_error
                 (Fmt.str "fact value %a does not fit type %s" Value.pp v (Value.ty_name expected), pos)))
    | None -> raise (Type_error ("fact argument evaluation failed", pos))
  in
  (* A literal is built at its column type directly; the property test
     "literal facts lower as the constant evaluator does" holds this to
     what [eval_const_expr] gives for it. *)
  let lower pos (ty : Value.ty) (e : Ast.expr) =
    match (e, ty) with
    | Ast.E_const (Ast.C_int n), _ when Value.is_integer_ty ty -> Value.int_literal ty n
    | Ast.E_const (Ast.C_float f), (Value.F32 | Value.F64) -> Value.float ty f
    | Ast.E_const (Ast.C_bool b), Value.Bool -> Value.bool b
    | Ast.E_const (Ast.C_char c), Value.Char -> Value.char c
    | Ast.E_const (Ast.C_str str), Value.Str -> Value.string str
    | _ -> eval_const_expr pos ty e
  in
  let facts =
    List.map
      (fun (f : Front.fact) ->
        let tys =
          match Hashtbl.find_opt rel_types f.Front.pred with
          | Some tys -> tys
          | None -> Array.of_list (List.map (fun _ -> Value.I32) f.Front.args)
        in
        let vals = List.mapi (fun i e -> lower f.Front.fact_pos tys.(i) e) f.Front.args in
        (f.Front.pred, f.Front.prob, f.Front.me_group, Tuple.of_list vals))
      front.Front.facts
  in
  { rel_types; rules; facts; queries = front.Front.queries }
