(** The tuple-at-a-time tree-walker: the test oracle the columnar executor
    ({!Scallop_core.Interp}) is checked against, bit for bit.

    It evaluates the same {!Plan.t} trees over lists of tagged tuples and
    balanced maps, independently of {!Scallop_core.Batch_ops}: no fixpoint
    caches, no profiling, no budget.  It evaluates recursive strata
    semi-naively over the plan's delta variants, as the executor does, or,
    with [~naive:true], by the naive lfp° that defines their semantics
    (Fig. 24: re-evaluate every rule until the database saturates).  Of
    the config only [config.rng] is read: samplers draw from it through
    the shared {!Aggregate.Make.sample}.

    Two pieces are its own rather than production's.  Its input database
    ({!Make.input_db}) folds the facts {!Session.load_facts} feeds it into a
    [Tuple.Map] per predicate as they load, where the executor builds
    sorted column batches.  Its [count] ({!Make.count_dp}) is the plain
    O(n²) dynamic program, where {!Aggregate.Make.count} skips the cells
    that can only stay 0.  Every other aggregator is the shared
    {!Aggregate.Make.run}. *)

open Scallop_core

module Make (P : Provenance.S) = struct
  module Agg = Aggregate.Make (P)
  module SMap = Map.Make (String)

  type relation = P.t Tuple.Map.t
  type db = relation SMap.t

  let relation_of db pred : relation =
    match SMap.find_opt pred db with Some r -> r | None -> Tuple.Map.empty

  let runtime_error msg = Exec_error.raise_error (Exec_error.Runtime_error { msg })

  (* ---- input database ------------------------------------------------------ *)

  (** The run's input database: each fact {!Session.load_facts} loads is
      added to its predicate's map as it arrives, a repeated tuple's tags
      ⊕-merged.  Returns the database and the fact ids. *)
  let input_db (c : Session.compiled) facts : db * ((string * Tuple.t) * int) list =
    let db = ref SMap.empty in
    let add pred tuple tag =
      let rel =
        Tuple.Map.update tuple
          (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
          (relation_of !db pred)
      in
      db := SMap.add pred rel !db
    in
    let fact_ids = Session.load_facts (module P) c facts ~add in
    (!db, fact_ids)

  (* ---- count (the plain DP) ------------------------------------------------- *)

  (** Count by the DP over (item, count-so-far), visiting every cell: O(n²)
      ⊕/⊗ calls under every provenance. *)
  let count_dp (items : (Tuple.t * P.t) list) : (Tuple.t * P.t) list =
    let n = List.length items in
    let dp = Array.make (n + 1) P.zero in
    dp.(0) <- P.one;
    List.iteri
      (fun i (_, t) ->
        let nt = Agg.neg t in
        for j = i + 1 downto 0 do
          let keep = P.mult dp.(j) nt in
          let take = if j > 0 then P.mult dp.(j - 1) t else P.zero in
          dp.(j) <- P.add keep take
        done)
      items;
    List.filter_map
      (fun j ->
        let t = dp.(j) in
        if P.discard t then None else Some ([| Value.int Value.USize j |], t))
      (Scallop_utils.Listx.range 0 (n + 1))

  let aggregate agg ~arg_len ?result_ty items =
    match agg with Ram.Count -> count_dp items | _ -> Agg.run agg ~arg_len ?result_ty items

  (* ---- normalization (Fig. 24, Normalize) ------------------------------- *)

  let normalize (tuples : (Tuple.t * P.t) list) : relation =
    List.fold_left
      (fun acc (u, t) ->
        Tuple.Map.update u
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          acc)
      Tuple.Map.empty tuples
    |> Tuple.Map.filter (fun _ t -> not (P.discard t))

  (* ---- grouping ------------------------------------------------------------ *)

  let split_key key_len (u : Tuple.t) =
    (Array.sub u 0 key_len, Array.sub u key_len (Array.length u - key_len))

  let group_map_by_key key_len (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list Tuple.Map.t =
    List.fold_left
      (fun m (u, t) ->
        let key, rest = split_key key_len u in
        Tuple.Map.update key
          (fun cur -> Some ((rest, t) :: Option.value cur ~default:[]))
          m)
      Tuple.Map.empty items
    |> Tuple.Map.map List.rev

  let group_by_key key_len (items : (Tuple.t * P.t) list) :
      (Tuple.t * (Tuple.t * P.t) list) list =
    Tuple.Map.bindings (group_map_by_key key_len items)

  (* Join buckets are built by consing, so each key's matches come out in
     reverse right-side order. *)
  let build_join_index rkeys rights : (Tuple.t * P.t) list Tuple.Map.t =
    List.fold_left
      (fun m ((u, _) as item) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key (fun cur -> Some (item :: Option.value cur ~default:[])) m)
      Tuple.Map.empty rights

  (* Anti-join right side: one ⊕-fold per key, in emission order. *)
  let build_antijoin_index rkeys rights : P.t Tuple.Map.t =
    List.fold_left
      (fun m (u, t) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          m)
      Tuple.Map.empty rights

  let negate t =
    match P.negate t with
    | Some nt -> nt
    | None -> runtime_error (P.name ^ " does not support negation")

  (* ---- expression evaluation (Fig. 7 / Fig. 23) -------------------------- *)

  (** Evaluate one plan tree over [db]. *)
  let rec eval config (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    match p.Plan.desc with
    | Plan.Empty -> []
    | Plan.Singleton -> [ (Tuple.unit, P.one) ]
    | Plan.Pred pr -> Tuple.Map.bindings (relation_of db pr)
    | Plan.Select (cond, e) -> List.filter (fun (u, _) -> Ram.eval_cond u cond) (eval config db e)
    | Plan.Project (m, e) ->
        List.filter_map
          (fun (u, t) -> Option.map (fun u' -> (u', t)) (Ram.eval_mapping u m))
          (eval config db e)
    | Plan.Union (a, b) -> eval config db a @ eval config db b
    | Plan.Product (a, b) ->
        let rb = eval config db b in
        List.concat_map
          (fun (ua, ta) -> List.map (fun (ub, tb) -> (Tuple.append ua ub, P.mult ta tb)) rb)
          (eval config db a)
    | Plan.Diff (a, b) ->
        (* Diff-1: tuple absent from b — propagate unchanged.
           Diff-2: present in both — tag t₁ ⊗ ⊖t₂ (information-preserving). *)
        let rb = normalize (eval config db b) in
        List.map
          (fun (u, ta) ->
            match Tuple.Map.find_opt u rb with
            | None -> (u, ta)
            | Some tb -> (u, P.mult ta (negate tb)))
          (eval config db a)
    | Plan.Intersect (a, b) ->
        let rb = normalize (eval config db b) in
        List.filter_map
          (fun (u, ta) -> Option.map (fun tb -> (u, P.mult ta tb)) (Tuple.Map.find_opt u rb))
          (eval config db a)
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index = build_join_index rkeys (eval config db right) in
        List.concat_map
          (fun (ul, tl) ->
            match Tuple.Map.find_opt (Tuple.project lkeys ul) index with
            | None -> []
            | Some matches ->
                List.map (fun (ur, tr) -> (Tuple.append ul ur, P.mult tl tr)) matches)
          (eval config db left)
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        (* a left tuple matching key k is tagged t_l ⊗ ⊖(⊕ of right tags at k) *)
        let index = build_antijoin_index rkeys (eval config db right) in
        List.map
          (fun (ul, tl) ->
            match Tuple.Map.find_opt (Tuple.project lkeys ul) index with
            | None -> (ul, tl)
            | Some tr -> (ul, P.mult tl (negate tr)))
          (eval config db left)
    | Plan.One_overwrite e ->
        Tuple.Map.bindings (normalize (eval config db e)) |> List.map (fun (u, _) -> (u, P.one))
    | Plan.Zero_overwrite e ->
        Tuple.Map.bindings (normalize (eval config db e)) |> List.map (fun (u, _) -> (u, P.zero))
    | Plan.Aggregate { agg; key_len; arg_len; result_ty; group; body } -> (
        let items = Tuple.Map.bindings (normalize (eval config db body)) in
        match group with
        | Plan.No_group ->
            let rest = List.map (fun (u, t) -> (snd (split_key key_len u), t)) items in
            aggregate agg ~arg_len ?result_ty rest
        | Plan.Implicit ->
            group_by_key key_len items
            |> List.concat_map (fun (key, group_items) ->
                   aggregate agg ~arg_len ?result_ty group_items
                   |> List.map (fun (r, t) -> (Tuple.append key r, t)))
        | Plan.Domain dom ->
            let domain = Tuple.Map.bindings (normalize (eval config db dom)) in
            let grouped = group_map_by_key key_len items in
            List.concat_map
              (fun (key, tg) ->
                let group_items = Option.value (Tuple.Map.find_opt key grouped) ~default:[] in
                aggregate agg ~arg_len ?result_ty group_items
                |> List.map (fun (r, t) -> (Tuple.append key r, P.mult tg t)))
              domain)
    | Plan.Sample { sampler; key_len; group; body } -> (
        let items = Tuple.Map.bindings (normalize (eval config db body)) in
        let rng = config.Interp.rng in
        match group with
        | Plan.No_group -> Agg.sample rng sampler items
        | Plan.Implicit | Plan.Domain _ ->
            (* a [Domain] is never evaluated: its groups are the body's keys *)
            group_by_key key_len items
            |> List.concat_map (fun (key, group_items) ->
                   Agg.sample rng sampler group_items
                   |> List.map (fun (r, t) -> (Tuple.append key r, t))))
    | Plan.Foreign_join { name; args; free_cols; left } -> (
        match Foreign.lookup_predicate name with
        | None -> runtime_error ("unknown foreign predicate $" ^ name)
        | Some (arity, fp) ->
            if List.length args <> arity then
              runtime_error ("arity mismatch for foreign predicate " ^ name);
            List.concat_map
              (fun (ul, tl) ->
                let pattern =
                  Array.of_list
                    (List.map
                       (function
                         | Ram.F_col i -> Some ul.(i)
                         | Ram.F_const v -> Some v
                         | Ram.F_free -> None)
                       args)
                in
                match fp pattern with
                | Error msg -> runtime_error (name ^ ": " ^ msg)
                | Ok tuples ->
                    List.map
                      (fun full -> (Tuple.append ul (Array.map (fun i -> full.(i)) free_cols), tl))
                      tuples)
              (eval config db left))

  (* ---- rules and strata (Fig. 24, Rule-1/2/3 and lfp°) --------------------- *)

  (* Rule-1: tuple only in old — keep.  Rule-2: only newly derived — add.
     Rule-3: both — ⊕-merge. *)
  let merge_newly (old : relation) (newly : relation) : relation =
    Tuple.Map.union (fun _u t_old t_new -> Some (P.add t_old t_new)) old newly

  (* Changed tuples of one round's normalized derivations against [old_rel],
     carrying their merged (old ⊕ new) tags; saturation is reflexive, so a
     tuple outside [newly] never changes. *)
  let delta_of ~(old_rel : relation) (newly : relation) : relation =
    Tuple.Map.fold
      (fun u t_new acc ->
        match Tuple.Map.find_opt u old_rel with
        | None -> Tuple.Map.add u t_new acc
        | Some t_old ->
            let merged = P.add t_old t_new in
            if P.saturated ~old:t_old merged then acc else Tuple.Map.add u merged acc)
      newly Tuple.Map.empty

  let relation_saturated ~(old_rel : relation) (new_rel : relation) : bool =
    Tuple.Map.for_all
      (fun u t_new ->
        match Tuple.Map.find_opt u old_rel with
        | Some t_old -> P.saturated ~old:t_old t_new
        | None -> false)
      new_rel

  (* One full round: every rule reads the database as of the round's start;
     heads are distinct within a stratum, so updates never collide. *)
  let step config (s : Plan.stratum) (db : db) : db =
    List.fold_left
      (fun acc (r : Plan.rule) ->
        let newly = normalize (eval config db r.Plan.body) in
        SMap.add r.Plan.head (merge_newly (relation_of db r.Plan.head) newly) acc)
      db s.Plan.rules

  let eval_stratum ~naive config (db : db) (s : Plan.stratum) : db =
    if not s.Plan.recursive then step config s db
    else if naive then begin
      let rec iterate db =
        let db' = step config s db in
        if
          List.for_all
            (fun h -> relation_saturated ~old_rel:(relation_of db h) (relation_of db' h))
            s.Plan.heads
        then db'
        else iterate db'
      in
      iterate db
    end
    else begin
      (* after a full first round, only derivations touching a changed
         ("delta") tuple are re-evaluated, the deltas bound under their
         mangled names *)
      let rec loop db deltas =
        if List.for_all (fun (_, d) -> Tuple.Map.is_empty d) deltas then db
        else begin
          let with_deltas =
            List.fold_left (fun a (h, d) -> SMap.add (Plan.delta_name h) d a) db deltas
          in
          let updates =
            List.map
              (fun (r : Plan.rule) ->
                (r.Plan.head, normalize (List.concat_map (eval config with_deltas) r.Plan.deltas)))
              s.Plan.rules
          in
          let deltas' =
            List.map (fun (h, newly) -> (h, delta_of ~old_rel:(relation_of db h) newly)) updates
          in
          let db' =
            List.fold_left
              (fun a (h, newly) -> SMap.add h (merge_newly (relation_of db h) newly) a)
              db updates
          in
          loop db' deltas'
        end
      in
      let db1 = step config s db in
      let first =
        List.map
          (fun h ->
            let old_rel = relation_of db h in
            ( h,
              Tuple.Map.filter
                (fun u t_new ->
                  match Tuple.Map.find_opt u old_rel with
                  | Some t_old -> not (P.saturated ~old:t_old t_new)
                  | None -> true)
                (relation_of db1 h) ))
          s.Plan.heads
      in
      loop db1 first
    end

  (** Evaluate every stratum of a planned program over [db]. *)
  let eval_plan_program ~naive config (db : db) (p : Plan.program) : db =
    List.fold_left (eval_stratum ~naive config) db p.Plan.strata

  (** Recovery phase: apply ρ to the tags of an output relation. *)
  let recover (db : db) pred : (Tuple.t * Provenance.Output.t) list =
    Tuple.Map.bindings (relation_of db pred) |> List.map (fun (u, t) -> (u, P.recover t))
end

(** {!Session.run} on the oracle: the same input facts, errors and result
    shape ([stats = None]).  [~naive:true] evaluates recursive
    strata by the naive lfp°. *)
let run ?(naive = false) ?(config = Interp.default_config ()) ~(provenance : Provenance.t)
    (c : Session.compiled) ?(facts = []) ?(outputs : string list option) () : Session.result =
  let module P = (val provenance : Provenance.S) in
  let module T = Make (P) in
  let db, fact_ids = T.input_db c facts in
  let db =
    try T.eval_plan_program ~naive config db c.Session.plan with
    | Exec_error.Error e -> raise (Session.Error e)
    | Aggregate.Unsupported msg -> raise (Session.Error (Exec_error.Runtime_error { msg }))
  in
  let out = match outputs with Some o -> o | None -> c.Session.ram.Ram.outputs in
  { Session.outputs = List.map (fun pred -> (pred, T.recover db pred)) out; fact_ids; stats = None }

(* ---- eager reference operators (the oracle of the guided proof search) ---- *)

(** ∨k : union of proof sets, truncated. *)
let disj_k_eager envr k (a : Formula.t) (b : Formula.t) : Formula.t =
  Formula.top_k envr k (a @ b)

(** ∧k : pairwise conflict-checked merge, truncated (Table 8). *)
let conj_k_eager envr k (a : Formula.t) (b : Formula.t) : Formula.t =
  let merged =
    List.concat_map (fun pa -> List.filter_map (fun pb -> Formula.merge_proofs envr pa pb) b) a
  in
  Formula.top_k envr k merged

(** top-k-proofs over the {e eager} reference operators ({!disj_k_eager},
    {!conj_k_eager} and [Formula.neg_k_eager]) — the differential oracle
    for the guided search and its benchmark baseline.  Same semantics as
    {!Prov_prob.Top_k_proofs}, materializing every candidate proof before
    truncating. *)
module Top_k_proofs_eager (K : sig
  val k : int
end)
() : Prov_prob.PROOFS_S = struct
  module P = Prov_discrete.Proofs ()

  let env = P.env

  type t = Formula.t

  let name = Fmt.str "topkproofseager-%d" K.k
  let zero = Formula.ff
  let one = Formula.tt
  let add a b = disj_k_eager P.env K.k a b
  let mult a b = conj_k_eager P.env K.k a b
  let negate t = Some (Formula.neg_k_eager P.env K.k t)
  let saturated ~old t = Formula.equal_ordered old t
  let discard t = Formula.is_false t
  let weight t = Formula.prob_upper_bound P.env t
  let tag_of_input = P.tag_of_input
  let recover t = Provenance.Output.O_prob (Wmc.prob ~env:P.env t)
  let pp = Formula.pp
end
