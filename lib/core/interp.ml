(** The SclRam runtime: tagged operational semantics (paper Fig. 7, 23, 24),
    parameterized by a provenance.

    A database maps predicates to relations; a relation maps tuples to tags.
    Expression evaluation produces (possibly duplicated) tagged tuples;
    rule evaluation normalizes them (⊕-merging duplicates and applying early
    [discard]) and merges with previously derived facts (Rule-1/2/3).
    Stratum evaluation is the saturation-checked least-fixed-point lfp°.

    The interpreter evaluates {!Plan.t} trees (RAM expressions annotated at
    compile time with stable node ids and stratum-invariance flags) rather
    than raw {!Ram.expr}s.  The annotations drive two features:

    - {e profiling}: when [config.stats] is set, every node evaluation is
      counted and timed under its node id, and each stratum records an
      iteration trace (see {!Plan.stats}).  With [stats = None] the only
      overhead is one match per node.
    - {e fixpoint caching}: when [config.cache_indices] is set, join and
      anti-join indices whose right side is invariant within the stratum,
      normalized right-hand relations of −/∩, and the materialized results
      of maximal invariant subtrees are computed once per stratum and reused
      across fixpoint iterations.  Caches are discarded at stratum exit.
      Invariance excludes samplers, so cached evaluation is observationally
      identical to uncached evaluation.

    Every run is additionally governed by a {!Budget.t} carried in the
    config: wall-clock deadline, per-stratum fixpoint-iteration cap,
    cumulative derived-tuple cap, node-evaluation cap, and an optional
    cooperative cancellation token.  Checks happen at fixpoint-iteration
    boundaries and (amortized, every {!Budget.clock_check_mask}+1 node
    evaluations) at operator boundaries; a violated budget aborts the run
    with a typed [Exec_error.Budget_exceeded] / [Exec_error.Cancelled] and
    bumps the matching counter in the profiling sink, leaving the caller's
    inputs untouched.  When no axis beyond the iteration cap is active the
    per-node bookkeeping is skipped entirely. *)

(* Re-exported so existing call sites can keep writing [Interp.stats],
   [s.Interp.fixpoint_iterations], etc.; the definitions live in {!Plan}
   next to the node-id assignment they are keyed by. *)
type node_stat = Plan.node_stat = {
  mutable evals : int;
  mutable tuples : int;
  mutable seconds : float;
  mutable hits : int;
}

type stratum_trace = Plan.stratum_trace = {
  stratum_index : int;
  mutable iterations : int;
  mutable delta_sizes : int list;
}

type stats = Plan.stats = {
  mutable fixpoint_iterations : int;
  node_stats : (int, node_stat) Hashtbl.t;
  mutable stratum_traces : stratum_trace list;
  budget_stops : Plan.budget_stops;
  mutable cache_tables : int;
}

let empty_stats = Plan.empty_stats
let merge_stats = Plan.merge_stats
let pp_profile = Plan.pp_profile

type config = {
  rng : Scallop_utils.Rng.t;
  budget : Budget.t;  (** resource bounds for each run under this config *)
  semi_naive : bool;
  cache_indices : bool;
      (** reuse join indices / invariant sub-relations across fixpoint
          iterations (sound; see {!Plan}) *)
  columnar : bool;
      (** [true] (the default, and the only production setting): evaluate
          strata with the columnar batch executor ({!Batch_ops}); plan
          subtrees it does not cover (samplers, foreign joins —
          [Plan.colable = false]) fall back to the tree-walker over decoded
          views, one subtree at a time.  [false] runs the whole program on
          the tree-walker and exists only as the differential oracle (the
          fuzz suite, test/test_columnar.ml, [bench interp]).  The two are
          bit-identical; see DESIGN.md "Columnar executor". *)
  stats : stats option;  (** profiling sink; [None] disables collection *)
}

let default_config () =
  {
    rng = Scallop_utils.Rng.create 0;
    budget = Budget.default;
    semi_naive = true;
    cache_indices = true;
    columnar = true;
    stats = None;
  }

let bump_stats config =
  match config.stats with Some s -> s.fixpoint_iterations <- s.fixpoint_iterations + 1 | None -> ()

let record_hit config pid =
  match config.stats with
  | Some s ->
      let st = Plan.node_stat s pid in
      st.hits <- st.hits + 1
  | None -> ()

let runtime_error msg = Exec_error.raise_error (Exec_error.Runtime_error { msg })

(* ---- budget monitor ---------------------------------------------------------- *)

(** Per-run budget accounting.  One monitor is created per
    [eval_plan_program] (equivalently per [Session.run]); it is local to the
    run's domain, so batched execution never shares one across workers. *)
type monitor = {
  mbudget : Budget.t;
  started : float;  (** wall-clock start of the run *)
  deadline : float;  (** absolute deadline; [infinity] when no timeout *)
  watched : bool;  (** see {!Budget.watched}; false skips node bookkeeping *)
  mutable m_stratum : int;  (** stratum currently being evaluated *)
  mutable m_iterations : int;  (** fixpoint iterations completed in [m_stratum] *)
  mutable m_tuples : int;  (** cumulative tuples materialized by rule evals *)
  mutable m_node_evals : int;  (** RAM-plan node evaluations so far *)
}

let make_monitor (b : Budget.t) : monitor =
  let started = Scallop_utils.Monotonic.now () in
  {
    mbudget = b;
    started;
    deadline = (match b.Budget.timeout with Some s -> started +. s | None -> infinity);
    watched = Budget.watched b;
    m_stratum = 0;
    m_iterations = 0;
    m_tuples = 0;
    m_node_evals = 0;
  }

(* Abort the run: bump the matching profiler counter, raise the typed
   diagnostic.  Raising is what unwinds the fixpoint — partial strata are
   dropped with the stack, so the caller's database is never torn. *)
let budget_stop config (mon : monitor) (kind : Exec_error.budget_kind) =
  (match config.stats with
  | Some s ->
      let b = s.budget_stops in
      (match kind with
      | Exec_error.Deadline -> b.Plan.deadline_stops <- b.Plan.deadline_stops + 1
      | Exec_error.Iterations -> b.Plan.iteration_stops <- b.Plan.iteration_stops + 1
      | Exec_error.Tuples -> b.Plan.tuple_stops <- b.Plan.tuple_stops + 1
      | Exec_error.Node_evals -> b.Plan.node_eval_stops <- b.Plan.node_eval_stops + 1)
  | None -> ());
  Exec_error.raise_error
    (Exec_error.Budget_exceeded
       {
         kind;
         stratum = mon.m_stratum;
         iterations = mon.m_iterations;
         elapsed = Scallop_utils.Monotonic.now () -. mon.started;
       })

let cancel_stop config (mon : monitor) =
  (match config.stats with
  | Some s -> s.budget_stops.Plan.cancelled_stops <- s.budget_stops.Plan.cancelled_stops + 1
  | None -> ());
  Exec_error.raise_error
    (Exec_error.Cancelled
       { stratum = mon.m_stratum; elapsed = Scallop_utils.Monotonic.now () -. mon.started })

(* Poll the cancellation token and the wall clock.  Called at every fixpoint
   iteration boundary and every [Budget.clock_check_mask]+1 node evals. *)
let check_wall config (mon : monitor) =
  (match mon.mbudget.Budget.cancel with
  | Some c when Scallop_utils.Cancel.cancelled c -> cancel_stop config mon
  | _ -> ());
  if Scallop_utils.Monotonic.now () > mon.deadline then budget_stop config mon Exec_error.Deadline

(* One node evaluation is about to run.  With no watched axis this is a
   single load and branch. *)
let check_node config (mon : monitor) =
  if mon.watched then begin
    mon.m_node_evals <- mon.m_node_evals + 1;
    (match mon.mbudget.Budget.max_node_evals with
    | Some cap when mon.m_node_evals > cap -> budget_stop config mon Exec_error.Node_evals
    | _ -> ());
    if mon.m_node_evals land Budget.clock_check_mask = 0 then check_wall config mon
  end

(* Charge [n] freshly materialized tuples against the cumulative cap.  The
   count is the cardinality of an already-built map, so the charge is O(1)
   beyond work the rule evaluation did anyway. *)
let charge_tuples config (mon : monitor) n =
  if mon.watched then begin
    mon.m_tuples <- mon.m_tuples + n;
    match mon.mbudget.Budget.max_tuples with
    | Some cap when mon.m_tuples > cap -> budget_stop config mon Exec_error.Tuples
    | _ -> ()
  end

(* Iteration boundary: [next_iter] is about to start in the current stratum
   ([next_iter - 1] completed).  The iteration cap is always enforced, even
   for unwatched budgets — it is the historical non-termination guardrail. *)
let check_iteration config (mon : monitor) ~next_iter =
  mon.m_iterations <- next_iter - 1;
  if next_iter > mon.mbudget.Budget.max_iterations then
    budget_stop config mon Exec_error.Iterations;
  if mon.watched then check_wall config mon

module Make (P : Provenance.S) = struct
  module Agg = Aggregate.Make (P)
  module B = Batch_ops.Make (P)
  module SMap = Map.Make (String)

  type relation = P.t Tuple.Map.t
  type db = relation SMap.t

  let empty_db : db = SMap.empty

  let relation_of db pred : relation =
    match SMap.find_opt pred db with Some r -> r | None -> Tuple.Map.empty

  let db_add_fact db pred tuple tag =
    let rel = relation_of db pred in
    let rel =
      Tuple.Map.update tuple
        (fun cur -> Some (match cur with None -> tag | Some t -> P.add t tag))
        rel
    in
    SMap.add pred rel db

  (* ---- normalization (Fig. 24, Normalize) ------------------------------- *)

  let normalize (tuples : (Tuple.t * P.t) list) : relation =
    List.fold_left
      (fun acc (u, t) ->
        Tuple.Map.update u
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          acc)
      Tuple.Map.empty tuples
    |> Tuple.Map.filter (fun _ t -> not (P.discard t))

  (* ---- grouping helper --------------------------------------------------- *)

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

  (* ---- samplers ---------------------------------------------------------- *)

  (* All samplers return exactly [min k |items|] tuples in ascending input
     order (input order is itself canonical: sampler bodies are normalized,
     so items arrive sorted by tuple).  Draws consume only [config.rng], so
     a fixed seed gives a fixed sample. *)
  let apply_sampler config sampler (items : (Tuple.t * P.t) list) :
      (Tuple.t * P.t) list =
    match sampler with
    | Ram.Top_k k -> Scallop_utils.Listx.top_k_by (fun (_, t) -> P.weight t) k items
    | Ram.Categorical k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          let weights = Array.map (fun (_, t) -> P.weight t) arr in
          Scallop_utils.Rng.weighted_sample_indices config.rng k weights
          |> Array.map (fun i -> arr.(i))
          |> Array.to_list
    | Ram.Uniform k ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        if k >= n then items
        else
          Scallop_utils.Rng.sample_indices config.rng k n
          |> Array.map (fun i -> arr.(i))
          |> Array.to_list

  (* ---- fixpoint caches ---------------------------------------------------- *)

  (** Per-stratum caches, keyed by plan node id; valid for the duration of
      one stratum's fixed point because cached nodes are invariant there. *)
  type cache = {
    c_rels : (int, (Tuple.t * P.t) list) Hashtbl.t;
        (** materialized results of maximal invariant subtrees *)
    c_joins : (int, (Tuple.t * P.t) list Tuple.Map.t) Hashtbl.t;
        (** join right-side indices, keyed by the right child's id *)
    c_antis : (int, P.t Tuple.Map.t) Hashtbl.t;
        (** anti-join right-side ⊕-merged indices *)
    c_norms : (int, P.t Tuple.Map.t) Hashtbl.t;
        (** normalized right-hand relations of −/∩ *)
  }

  let record_cache_table config =
    match config.stats with Some s -> s.cache_tables <- s.cache_tables + 1 | None -> ()

  let fresh_cache config =
    record_cache_table config;
    {
      c_rels = Hashtbl.create 16;
      c_joins = Hashtbl.create 16;
      c_antis = Hashtbl.create 16;
      c_norms = Hashtbl.create 16;
    }

  let build_join_index rkeys rights : (Tuple.t * P.t) list Tuple.Map.t =
    List.fold_left
      (fun m ((u, _) as item) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key (fun cur -> Some (item :: Option.value cur ~default:[])) m)
      Tuple.Map.empty rights

  let build_antijoin_index rkeys rights : P.t Tuple.Map.t =
    List.fold_left
      (fun m (u, t) ->
        let key = Tuple.project rkeys u in
        Tuple.Map.update key
          (fun cur -> Some (match cur with None -> t | Some t' -> P.add t' t))
          m)
      Tuple.Map.empty rights

  (* ---- expression evaluation (Fig. 7 / Fig. 23) -------------------------- *)

  (* [eval] wraps [eval_node] with (a) result caching at maximal invariant
     subtrees — an invariant node reached from a variant parent checks the
     cache; its own subtree is then evaluated cache-less since every
     descendant is invariant too — and (b) per-node profiling.  Wall times
     are inclusive of children. *)
  let rec eval config mon (cache : cache option) (db : db) (p : Plan.t) :
      (Tuple.t * P.t) list =
    match cache with
    | Some c when p.Plan.invariant -> (
        match Hashtbl.find_opt c.c_rels p.Plan.pid with
        | Some r ->
            record_hit config p.Plan.pid;
            r
        | None ->
            let r = eval_timed config mon None db p in
            Hashtbl.add c.c_rels p.Plan.pid r;
            r)
    | _ -> eval_timed config mon cache db p

  and eval_timed config mon cache db (p : Plan.t) =
    check_node config mon;
    match config.stats with
    | None -> eval_node config mon cache db p
    | Some s ->
        let t0 = Scallop_utils.Monotonic.now () in
        let r = eval_node config mon cache db p in
        let st = Plan.node_stat s p.Plan.pid in
        st.evals <- st.evals + 1;
        st.tuples <- st.tuples + List.length r;
        st.seconds <- st.seconds +. (Scallop_utils.Monotonic.now () -. t0);
        r

  (* Normalized right-hand side of −/∩, cached when invariant. *)
  and normalized_right config mon cache db (b : Plan.t) : P.t Tuple.Map.t =
    match cache with
    | Some c when b.Plan.invariant -> (
        match Hashtbl.find_opt c.c_norms b.Plan.pid with
        | Some m ->
            record_hit config b.Plan.pid;
            m
        | None ->
            let m = normalize (eval config mon None db b) in
            Hashtbl.add c.c_norms b.Plan.pid m;
            m)
    | _ -> normalize (eval config mon cache db b)

  and eval_node config mon cache (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    match p.Plan.desc with
    | Plan.Empty -> []
    | Plan.Singleton -> [ (Tuple.unit, P.one) ]
    | Plan.Pred pr -> Tuple.Map.bindings (relation_of db pr)
    | Plan.Select (cond, e) ->
        List.filter (fun (u, _) -> Ram.eval_cond u cond) (eval config mon cache db e)
    | Plan.Project (m, e) ->
        List.filter_map
          (fun (u, t) -> Option.map (fun u' -> (u', t)) (Ram.eval_mapping u m))
          (eval config mon cache db e)
    | Plan.Union (a, b) -> eval config mon cache db a @ eval config mon cache db b
    | Plan.Product (a, b) ->
        let rb = eval config mon cache db b in
        List.concat_map
          (fun (ua, ta) -> List.map (fun (ub, tb) -> (Tuple.append ua ub, P.mult ta tb)) rb)
          (eval config mon cache db a)
    | Plan.Diff (a, b) ->
        (* Diff-1: tuple absent from b — propagate unchanged.
           Diff-2: present in both — tag t₁ ⊗ ⊖t₂ (information-preserving). *)
        let rb = normalized_right config mon cache db b in
        List.filter_map
          (fun (u, ta) ->
            match Tuple.Map.find_opt u rb with
            | None -> Some (u, ta)
            | Some tb -> (
                match P.negate tb with
                | Some ntb -> Some (u, P.mult ta ntb)
                | None -> runtime_error (P.name ^ " does not support negation")))
          (eval config mon cache db a)
    | Plan.Intersect (a, b) ->
        let rb = normalized_right config mon cache db b in
        List.filter_map
          (fun (u, ta) ->
            Option.map (fun tb -> (u, P.mult ta tb)) (Tuple.Map.find_opt u rb))
          (eval config mon cache db a)
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.c_joins right.Plan.pid with
              | Some idx ->
                  record_hit config right.Plan.pid;
                  idx
              | None ->
                  let idx = build_join_index rkeys (eval config mon None db right) in
                  Hashtbl.add c.c_joins right.Plan.pid idx;
                  idx)
          | _ -> build_join_index rkeys (eval config mon cache db right)
        in
        List.concat_map
          (fun (ul, tl) ->
            let key = Tuple.project lkeys ul in
            match Tuple.Map.find_opt key index with
            | None -> []
            | Some matches ->
                List.map (fun (ur, tr) -> (Tuple.append ul ur, P.mult tl tr)) matches)
          (eval config mon cache db left)
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        (* Right side is keyed and ⊕-merged; a left tuple matching key k is
           tagged t_l ⊗ ⊖(⊕ of right tags at k). *)
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.c_antis right.Plan.pid with
              | Some idx ->
                  record_hit config right.Plan.pid;
                  idx
              | None ->
                  let idx = build_antijoin_index rkeys (eval config mon None db right) in
                  Hashtbl.add c.c_antis right.Plan.pid idx;
                  idx)
          | _ -> build_antijoin_index rkeys (eval config mon cache db right)
        in
        List.filter_map
          (fun (ul, tl) ->
            let key = Tuple.project lkeys ul in
            match Tuple.Map.find_opt key index with
            | None -> Some (ul, tl)
            | Some tr -> (
                match P.negate tr with
                | Some ntr -> Some (ul, P.mult tl ntr)
                | None -> runtime_error (P.name ^ " does not support negation")))
          (eval config mon cache db left)
    | Plan.One_overwrite e ->
        Tuple.Map.bindings (normalize (eval config mon cache db e))
        |> List.map (fun (u, _) -> (u, P.one))
    | Plan.Zero_overwrite e ->
        Tuple.Map.bindings (normalize (eval config mon cache db e))
        |> List.map (fun (u, _) -> (u, P.zero))
    | Plan.Aggregate { agg; key_len; arg_len; group; body } -> (
        let items = Tuple.Map.bindings (normalize (eval config mon cache db body)) in
        match group with
        | Plan.No_group ->
            let rest = List.map (fun (u, t) -> (snd (split_key key_len u), t)) items in
            Agg.run agg ~arg_len rest
        | Plan.Implicit ->
            group_by_key key_len items
            |> List.concat_map (fun (key, group_items) ->
                   Agg.run agg ~arg_len group_items
                   |> List.map (fun (r, t) -> (Tuple.append key r, t)))
        | Plan.Domain dom ->
            let domain = Tuple.Map.bindings (normalize (eval config mon cache db dom)) in
            (* group lookup by balanced map, not a linear scan per key *)
            let grouped = group_map_by_key key_len items in
            List.concat_map
              (fun (key, tg) ->
                let group_items =
                  Option.value (Tuple.Map.find_opt key grouped) ~default:[]
                in
                Agg.run agg ~arg_len group_items
                |> List.map (fun (r, t) -> (Tuple.append key r, P.mult tg t)))
              domain)
    | Plan.Sample { sampler; key_len; group; body } -> (
        let items = Tuple.Map.bindings (normalize (eval config mon cache db body)) in
        match group with
        | Plan.No_group -> apply_sampler config sampler items
        | Plan.Implicit | Plan.Domain _ ->
            group_by_key key_len items
            |> List.concat_map (fun (key, group_items) ->
                   apply_sampler config sampler group_items
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
                    (* keep only the free positions, in order; positions are
                       precomputed per node, not per result tuple *)
                    List.map
                      (fun full ->
                        let extra = Array.map (fun i -> full.(i)) free_cols in
                        (Tuple.append ul extra, tl))
                      tuples)
              (eval config mon cache db left))

  (* ---- rules (Fig. 24, Rule-1/2/3) --------------------------------------- *)

  (* Rule-1: tuple only in old — keep.  Rule-2: only newly derived — add.
     Rule-3: both — ⊕-merge.  [Tuple.Map.union] visits only colliding keys,
     so merging a small delta into a large accumulated relation costs
     O(|new| log |old|) rather than O(|old|). *)
  let merge_newly (old : relation) (newly : relation) : relation =
    Tuple.Map.union (fun _u t_old t_new -> Some (P.add t_old t_new)) old newly

  let eval_rule config mon cache (db : db) (r : Plan.rule) : relation =
    let newly = normalize (eval config mon cache db r.Plan.body) in
    charge_tuples config mon (Tuple.Map.cardinal newly);
    merge_newly (relation_of db r.Plan.head) newly

  (* ---- strata (Fig. 24, lfp°) -------------------------------------------- *)

  let relation_saturated ~(old_rel : relation) (new_rel : relation) : bool =
    Tuple.Map.for_all
      (fun u t_new ->
        match Tuple.Map.find_opt u old_rel with
        | Some t_old -> P.saturated ~old:t_old t_new
        | None -> false)
      new_rel

  (* Changed ("delta") tuples of a full new relation vs. the old one. *)
  let changed ~(old_rel : relation) (new_rel : relation) : relation =
    Tuple.Map.filter
      (fun u t_new ->
        match Tuple.Map.find_opt u old_rel with
        | Some t_old -> not (P.saturated ~old:t_old t_new)
        | None -> true)
      new_rel

  (* Delta of one semi-naive round, computed from the round's normalized
     derivations only (O(|newly| log |old|)): a tuple outside [newly] keeps
     its old tag, and saturation is reflexive (required for termination), so
     it can never be part of the delta.  Delta tuples carry their merged
     (old ⊕ new) tag, exactly as [changed] over the merged relation would
     produce. *)
  let delta_of ~(old_rel : relation) (newly : relation) : relation =
    Tuple.Map.fold
      (fun u t_new acc ->
        match Tuple.Map.find_opt u old_rel with
        | None -> Tuple.Map.add u t_new acc
        | Some t_old ->
            let merged = P.add t_old t_new in
            if P.saturated ~old:t_old merged then acc else Tuple.Map.add u merged acc)
      newly Tuple.Map.empty

  (* Per-stratum iteration trace, appended to the profiling sink in stratum
     order. *)
  let new_trace config sidx =
    match config.stats with
    | Some st ->
        let tr = { Plan.stratum_index = sidx; iterations = 0; delta_sizes = [] } in
        st.stratum_traces <- st.stratum_traces @ [ tr ];
        Some tr
    | None -> None

  let record_iter config trace ?size () =
    bump_stats config;
    match trace with
    | None -> ()
    | Some tr ->
        tr.iterations <- tr.iterations + 1;
        (match size with Some n -> tr.delta_sizes <- n :: tr.delta_sizes | None -> ())

  let delta_size ds = List.fold_left (fun acc (_, d) -> acc + Tuple.Map.cardinal d) 0 ds

  (* The semi-naive inner loop: repeatedly evaluate each rule's delta
     variants with the current delta relations bound under their mangled
     names, ⊕-merge the normalized derivations, and recompute the deltas,
     until every delta drains.  Returns the saturated database.  The
     first, full round already ran in [eval_stratum], so counting starts at
     iteration 2. *)
  let delta_loop config mon cache trace (s : Plan.stratum) (db : db)
      (deltas : (string * relation) list) : db =
    let rec loop db deltas iters =
      if List.for_all (fun (_, d) -> Tuple.Map.is_empty d) deltas then begin
        mon.m_iterations <- iters - 1;
        db
      end
      else begin
        check_iteration config mon ~next_iter:iters;
        let db_with_deltas =
          List.fold_left (fun a (h, d) -> SMap.add (Plan.delta_name h) d a) db deltas
        in
        let updates =
          List.map
            (fun (r : Plan.rule) ->
              let newly =
                normalize (List.concat_map (eval config mon cache db_with_deltas) r.Plan.deltas)
              in
              charge_tuples config mon (Tuple.Map.cardinal newly);
              (r.Plan.head, newly))
            s.Plan.rules
        in
        let deltas' =
          List.map
            (fun (h, newly) -> (h, delta_of ~old_rel:(relation_of db h) newly))
            updates
        in
        let db' =
          List.fold_left
            (fun a (h, newly) -> SMap.add h (merge_newly (relation_of db h) newly) a)
            db updates
        in
        record_iter config trace
          ?size:(match trace with Some _ -> Some (delta_size deltas') | None -> None)
          ();
        loop db' deltas' (iters + 1)
      end
    in
    loop db deltas 2

  let eval_stratum config mon (db : db) (sidx : int) (s : Plan.stratum) : db =
    let heads = s.Plan.heads in
    mon.m_stratum <- sidx;
    mon.m_iterations <- 0;
    (* Caches only pay off across fixpoint iterations (every plan node has a
       unique id, so within one pass nothing is ever looked up twice).  A
       non-recursive stratum runs exactly one pass: building the cache
       tables there is pure overhead — measurably so on small aggregation
       strata — so skip them. *)
    let cache =
      if config.cache_indices && s.Plan.recursive then Some (fresh_cache config) else None
    in
    let trace = new_trace config sidx in
    let record_iter ?size () = record_iter config trace ?size () in
    let step (db : db) : db =
      List.fold_left
        (fun acc (r : Plan.rule) ->
          (* Each rule reads the database as of the start of the iteration
             (db), not the partially updated one; heads are distinct within a
             stratum so updates never collide. *)
          SMap.add r.Plan.head (eval_rule config mon cache db r) acc)
        db s.Plan.rules
    in
    let changed_count db db' =
      List.fold_left
        (fun acc h ->
          Tuple.Map.cardinal (changed ~old_rel:(relation_of db h) (relation_of db' h)) + acc)
        0 heads
    in
    if not s.Plan.recursive then begin
      check_iteration config mon ~next_iter:1;
      record_iter ();
      step db
    end
    else if not config.semi_naive then begin
      (* Naive lfp° exactly as Fig. 24: re-evaluate all rules until the
         database saturates.  Kept as the reference implementation. *)
      let rec iterate db iters =
        check_iteration config mon ~next_iter:iters;
        let db' = step db in
        record_iter ?size:(match trace with Some _ -> Some (changed_count db db') | None -> None) ();
        let saturated =
          List.for_all
            (fun h -> relation_saturated ~old_rel:(relation_of db h) (relation_of db' h))
            heads
        in
        if saturated then db' else iterate db' (iters + 1)
      in
      iterate db 1
    end
    else begin
      (* Semi-naive: after a full first round, only derivations touching a
         changed ("delta") tuple are re-evaluated. *)
      check_iteration config mon ~next_iter:1;
      let db1 = step db in
      let deltas =
        List.map (fun h -> (h, changed ~old_rel:(relation_of db h) (relation_of db1 h))) heads
      in
      record_iter ?size:(match trace with Some _ -> Some (delta_size deltas) | None -> None) ();
      delta_loop config mon cache trace s db1 deltas
    end

  (* ---- columnar execution (config.columnar) ------------------------------- *)

  (* The vectorized twin of [eval]/[eval_stratum]: relations are {!B.crel}
     sorted-run stacks, operators work batch-at-a-time over {!Column}
     encodings, and every operator reproduces the tree-walker's emission
     order, so normalization ⊕-folds duplicates in the identical sequence
     and the result is bit-identical (fuzz-checked; see test/test_fuzz.ml).

     Plan subtrees with [colable = false] (samplers, foreign joins) fall
     back to the tree-walker over decoded views, memoized per predicate by
     (crel identity, version) so an unchanged relation is decoded once per
     fixpoint rather than once per iteration.  Child-evaluation order
     mirrors [eval_node] exactly — right sides before left sides — so
     fallback subtrees consume [config.rng] in the same sequence and
     sampler draws are preserved. *)

  type cdb = B.crel SMap.t

  type cruntime = {
    cmemo : (string, B.crel * int * relation) Hashtbl.t;
        (** decoded fallback views: pred ↦ (crel it decodes, version, view) *)
  }

  (** Per-stratum columnar caches, the twins of {!cache}. *)
  type ccache = {
    cc_rels : (int, B.batch) Hashtbl.t;
    cc_joins : (int, B.key_index) Hashtbl.t;
    cc_antis : (int, B.anti_index) Hashtbl.t;
    cc_norms : (int, B.batch) Hashtbl.t;
  }

  let fresh_ccache config =
    record_cache_table config;
    {
      cc_rels = Hashtbl.create 16;
      cc_joins = Hashtbl.create 16;
      cc_antis = Hashtbl.create 16;
      cc_norms = Hashtbl.create 16;
    }

  let crel_of (cdb : cdb) pred : B.crel =
    match SMap.find_opt pred cdb with Some c -> c | None -> B.crel_empty ()

  let decode_db (rt : cruntime) (cdb : cdb) : db =
    SMap.mapi
      (fun pred cr ->
        match Hashtbl.find_opt rt.cmemo pred with
        | Some (cr', v', rel) when cr' == cr && v' = cr.B.version -> rel
        | _ ->
            let rel = B.to_relation cr in
            Hashtbl.replace rt.cmemo pred (cr, cr.B.version, rel);
            rel)
      cdb

  let rec ceval config mon rt (cache : ccache option) (cdb : cdb) (p : Plan.t) : B.batch =
    match cache with
    | Some c when p.Plan.invariant -> (
        match Hashtbl.find_opt c.cc_rels p.Plan.pid with
        | Some r ->
            record_hit config p.Plan.pid;
            r
        | None ->
            let r = ceval_inner config mon rt None cdb p in
            Hashtbl.add c.cc_rels p.Plan.pid r;
            r)
    | _ -> ceval_inner config mon rt cache cdb p

  and ceval_inner config mon rt cache cdb (p : Plan.t) : B.batch =
    if not p.Plan.colable then
      (* whole-subtree fallback: the tree-walker does its own node
         accounting and profiling, so no [check_node] here *)
      B.of_list (eval config mon None (decode_db rt cdb) p)
    else ceval_timed config mon rt cache cdb p

  and ceval_timed config mon rt cache cdb (p : Plan.t) : B.batch =
    check_node config mon;
    match config.stats with
    | None -> ceval_node config mon rt cache cdb p
    | Some s ->
        let t0 = Scallop_utils.Monotonic.now () in
        let r = ceval_node config mon rt cache cdb p in
        let st = Plan.node_stat s p.Plan.pid in
        st.evals <- st.evals + 1;
        st.tuples <- st.tuples + r.B.n;
        st.seconds <- st.seconds +. (Scallop_utils.Monotonic.now () -. t0);
        r

  and cnormalized_right config mon rt cache cdb (b : Plan.t) : B.batch =
    match cache with
    | Some c when b.Plan.invariant -> (
        match Hashtbl.find_opt c.cc_norms b.Plan.pid with
        | Some r ->
            record_hit config b.Plan.pid;
            r
        | None ->
            let r = B.sort_normalize (ceval config mon rt None cdb b) in
            Hashtbl.add c.cc_norms b.Plan.pid r;
            r)
    | _ -> B.sort_normalize (ceval config mon rt cache cdb b)

  and ceval_node config mon rt cache (cdb : cdb) (p : Plan.t) : B.batch =
    match p.Plan.desc with
    | Plan.Empty -> B.empty
    | Plan.Singleton -> Lazy.force B.singleton
    | Plan.Pred pr -> B.crel_force (crel_of cdb pr)
    | Plan.Select (cond, e) -> B.select cond (ceval config mon rt cache cdb e)
    | Plan.Project (m, { Plan.desc = Plan.Join { lkeys; rkeys; left; right }; _ })
      when List.for_all (function Ram.Access _ -> true | _ -> false) m ->
        (* fused π∘⋈ for pure column selections: identical emission order and
           tags, but the gathers of dropped join columns are never done (the
           recursive-rule hot path is π[k…]( Δ ⋈ edb )) *)
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.cc_joins right.Plan.pid with
              | Some ix ->
                  record_hit config right.Plan.pid;
                  ix
              | None ->
                  let ix = B.build_key_index rkeys (ceval config mon rt None cdb right) in
                  Hashtbl.add c.cc_joins right.Plan.pid ix;
                  ix)
          | _ -> B.build_key_index rkeys (ceval config mon rt cache cdb right)
        in
        let lb = ceval config mon rt cache cdb left in
        let width = Array.length lb.B.cols + Array.length index.B.ki_src.B.cols in
        let keep = List.map (function Ram.Access i -> i | _ -> assert false) m in
        if lb.B.n = 0 || List.for_all (fun i -> i >= 0 && i < width) keep then
          B.join ~keep:(Array.of_list keep) ~lkeys lb index
        else B.project m (B.join ~lkeys lb index)
    | Plan.Project (m, e) -> B.project m (ceval config mon rt cache cdb e)
    | Plan.Union (a, b) ->
        (* right child first, like the tree-walker's [eval a @ eval b] *)
        let rb = ceval config mon rt cache cdb b in
        let ra = ceval config mon rt cache cdb a in
        B.union ra rb
    | Plan.Product (a, b) ->
        let rb = ceval config mon rt cache cdb b in
        let ra = ceval config mon rt cache cdb a in
        B.product ra rb
    | Plan.Diff (a, b) ->
        let rb = cnormalized_right config mon rt cache cdb b in
        let ra = ceval config mon rt cache cdb a in
        B.diff ra rb
    | Plan.Intersect (a, b) ->
        let rb = cnormalized_right config mon rt cache cdb b in
        let ra = ceval config mon rt cache cdb a in
        B.intersect ra rb
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.cc_joins right.Plan.pid with
              | Some ix ->
                  record_hit config right.Plan.pid;
                  ix
              | None ->
                  let ix = B.build_key_index rkeys (ceval config mon rt None cdb right) in
                  Hashtbl.add c.cc_joins right.Plan.pid ix;
                  ix)
          | _ -> B.build_key_index rkeys (ceval config mon rt cache cdb right)
        in
        B.join ~lkeys (ceval config mon rt cache cdb left) index
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.cc_antis right.Plan.pid with
              | Some ix ->
                  record_hit config right.Plan.pid;
                  ix
              | None ->
                  let ix = B.build_anti_index rkeys (ceval config mon rt None cdb right) in
                  Hashtbl.add c.cc_antis right.Plan.pid ix;
                  ix)
          | _ -> B.build_anti_index rkeys (ceval config mon rt cache cdb right)
        in
        B.antijoin ~lkeys (ceval config mon rt cache cdb left) index
    | Plan.One_overwrite e ->
        B.retag P.one (B.sort_normalize (ceval config mon rt cache cdb e))
    | Plan.Zero_overwrite e ->
        B.retag P.zero (B.sort_normalize (ceval config mon rt cache cdb e))
    | Plan.Aggregate { agg; key_len; arg_len; group; body } ->
        let items = B.sort_normalize (ceval config mon rt cache cdb body) in
        let group =
          match group with
          | Plan.No_group -> `No_group
          | Plan.Implicit -> `Implicit
          | Plan.Domain dom ->
              `Domain (B.sort_normalize (ceval config mon rt cache cdb dom))
        in
        B.aggregate agg ~key_len ~arg_len ~group items
    | Plan.Sample _ | Plan.Foreign_join _ ->
        (* colable = false by construction; handled by the fallback *)
        assert false

  (* The columnar lfp°, mirroring [eval_stratum] structure for structure.
     Head crels are mutable, so each round computes {e every} rule's update
     and delta against the round-start state before pushing any of them. *)
  let ceval_stratum config mon rt (cdb : cdb) (sidx : int) (s : Plan.stratum) : cdb =
    mon.m_stratum <- sidx;
    mon.m_iterations <- 0;
    let cache =
      if config.cache_indices && s.Plan.recursive then Some (fresh_ccache config) else None
    in
    let trace = new_trace config sidx in
    let record_iter ?size () = record_iter config trace ?size () in
    let rule_updates cdb plans_of =
      List.map
        (fun (r : Plan.rule) ->
          let evaled = B.concat (List.map (ceval config mon rt cache cdb) (plans_of r)) in
          let newly = B.sort_normalize evaled in
          charge_tuples config mon newly.B.n;
          (r.Plan.head, newly))
        s.Plan.rules
    in
    (* every rule's (acc, delta) against the round-start state, then every
       push: heads are distinct, but a head's crel is mutable *)
    let deltas_of cdb updates =
      List.map (fun (h, newly) -> (h, B.delta_of_run ~old:(crel_of cdb h) newly)) updates
    in
    let push cdb deltas =
      List.fold_left
        (fun a (h, (acc, _)) ->
          let cr = crel_of a h in
          B.crel_push cr acc;
          SMap.add h cr a)
        cdb deltas
    in
    let dsize ds = List.fold_left (fun acc (_, (_, d)) -> acc + d.B.n) 0 ds in
    if not s.Plan.recursive then begin
      check_iteration config mon ~next_iter:1;
      record_iter ();
      push cdb (deltas_of cdb (rule_updates cdb (fun r -> [ r.Plan.body ])))
    end
    else begin
      (* delta-drained loop shared by naive and semi-naive: [delta_of_run]
         empty for every head ⟺ [relation_saturated] (saturation is
         reflexive), so both modes share the same termination test *)
      let rec loop cdb deltas iters =
        if List.for_all (fun (_, (_, d)) -> d.B.n = 0) deltas then begin
          mon.m_iterations <- iters - 1;
          cdb
        end
        else begin
          check_iteration config mon ~next_iter:iters;
          let updates =
            if config.semi_naive then begin
              let cdb_with_deltas =
                List.fold_left
                  (fun a (h, (_, d)) -> SMap.add (Plan.delta_name h) (B.crel_of_run d) a)
                  cdb deltas
              in
              rule_updates cdb_with_deltas (fun r -> r.Plan.deltas)
            end
            else rule_updates cdb (fun r -> [ r.Plan.body ])
          in
          let deltas' = deltas_of cdb updates in
          let cdb' = push cdb deltas' in
          record_iter
            ?size:(match trace with Some _ -> Some (dsize deltas') | None -> None)
            ();
          loop cdb' deltas' (iters + 1)
        end
      in
      (* full first round *)
      check_iteration config mon ~next_iter:1;
      let updates = rule_updates cdb (fun r -> [ r.Plan.body ]) in
      let deltas = deltas_of cdb updates in
      let cdb1 = push cdb deltas in
      record_iter ?size:(match trace with Some _ -> Some (dsize deltas) | None -> None) ();
      loop cdb1 deltas 2
    end

  (* ---- programs ----------------------------------------------------------- *)

  let eval_plan_program config (db : db) (p : Plan.program) : db =
    let mon = make_monitor config.budget in
    if mon.watched then check_wall config mon;
    if config.columnar then begin
      let rt = { cmemo = Hashtbl.create 8 } in
      let cdb = SMap.map B.crel_of_relation db in
      let cdb =
        fst
          (List.fold_left
             (fun (cdb, i) s -> (ceval_stratum config mon rt cdb i s, i + 1))
             (cdb, 0) p.Plan.strata)
      in
      let db = SMap.map B.to_relation cdb in
      B.release ();
      db
    end
    else
      fst
        (List.fold_left
           (fun (db, i) s -> (eval_stratum config mon db i s, i + 1))
           (db, 0) p.Plan.strata)

  (** Evaluate a raw RAM program by planning it on the fly (compiled sessions
      plan once at compile time and use {!eval_plan_program} directly). *)
  let eval_program config (db : db) (p : Ram.program) : db =
    eval_plan_program config db (Plan.of_program p)

  (** Recovery phase: apply ρ to the tags of an output relation. *)
  let recover (db : db) pred : (Tuple.t * Provenance.Output.t) list =
    Tuple.Map.bindings (relation_of db pred)
    |> List.map (fun (u, t) -> (u, P.recover t))

  (** Evaluate a program and recover the [out] relations in one step — the
      entry point {!Session.run} uses.  Row engine: {!eval_plan_program}
      followed by {!recover}.  Columnar engine: outputs are read directly
      off the final sorted runs (a forced run enumerates in exactly
      [Tuple.Map.bindings] order), skipping the per-relation O(N log N) map
      materialization that {!eval_plan_program} pays for API compatibility. *)
  let eval_plan_program_outputs config (db : db) (p : Plan.program) ~(out : string list) :
      (string * (Tuple.t * Provenance.Output.t) list) list =
    if config.columnar then begin
      let mon = make_monitor config.budget in
      if mon.watched then check_wall config mon;
      let rt = { cmemo = Hashtbl.create 8 } in
      let cdb = SMap.map B.crel_of_relation db in
      let cdb =
        fst
          (List.fold_left
             (fun (cdb, i) s -> (ceval_stratum config mon rt cdb i s, i + 1))
             (cdb, 0) p.Plan.strata)
      in
      let outputs =
        List.map (fun pred -> (pred, B.to_outputs (B.crel_force (crel_of cdb pred)))) out
      in
      B.release ();
      outputs
    end
    else
      let db = eval_plan_program config db p in
      List.map (fun pred -> (pred, recover db pred)) out

  (* ---- single-plan evaluators (differential-test harness) ------------------ *)

  (** Evaluate one plan tree over [db] with the tree-walker, uncached.
      Used as the oracle in test/test_columnar.ml. *)
  let eval_plan config (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    let mon = make_monitor config.budget in
    eval config mon None db p

  (** Evaluate one plan tree over [db] with the columnar executor, uncached;
      must be bit-identical to {!eval_plan} per tuple and tag. *)
  let eval_plan_columnar config (db : db) (p : Plan.t) : (Tuple.t * P.t) list =
    let mon = make_monitor config.budget in
    let rt = { cmemo = Hashtbl.create 4 } in
    B.to_list (ceval config mon rt None (SMap.map B.crel_of_relation db) p)
end
