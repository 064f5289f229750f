(** The SclRam runtime: tagged operational semantics (paper Fig. 7, 23, 24),
    parameterized by a provenance.

    A database maps predicates to relations; a relation maps tuples to tags.
    A run starts from its input relations, one strictly sorted column batch
    per predicate ({!Batch_ops.Make.input_batches}, built by {!Session.run}),
    each seeding its relation.  Expression evaluation produces (possibly
    duplicated) tagged tuples; rule evaluation normalizes them (⊕-merging
    duplicates and applying early [discard]) and merges with previously
    derived facts (Rule-1/2/3).
    Stratum evaluation is the saturation-checked least-fixed-point lfp°.

    There is one executor: the columnar batch executor ({!Batch_ops}) runs
    every plan node, samplers and foreign joins included.  The tuple-at-a-
    time tree-walker it is checked against lives in the test tree
    (test/fuzz/tree_walker.ml) as an uncached oracle.

    The interpreter evaluates {!Plan.t} trees (RAM expressions annotated at
    compile time with stable node ids and stratum-invariance flags) rather
    than raw {!Ram.expr}s.  The annotations drive two features:

    - {e profiling}: when [config.stats] is set, every node evaluation is
      counted and timed under its node id, and each stratum records an
      iteration trace (see {!Plan.stats}).  With [stats = None] the only
      overhead is one match per node.
    - {e fixpoint caching}: in a recursive stratum, join and anti-join
      indices whose right side is invariant within the stratum, normalized
      right-hand relations of −/∩, and the materialized results of maximal
      invariant subtrees are computed once per stratum and reused across
      fixpoint iterations.  Caches are discarded at stratum exit.
      Invariance excludes samplers, so cached evaluation is observationally
      identical to the uncached test oracle's.

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
  stats : stats option;  (** profiling sink; [None] disables collection *)
}

let default_config () =
  {
    rng = Scallop_utils.Rng.create 0;
    budget = Budget.default;
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

(* ---- budget monitor ---------------------------------------------------------- *)

(** Per-run budget accounting.  One monitor is created per run
    ([eval_plan_program_outputs], i.e. per [Session.run]); it is local to
    the run's domain, so batched execution never shares one across
    workers. *)
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

module SMap = Map.Make (String)

module Make (P : Provenance.S) = struct
  module B = Batch_ops.Make (P)

  (* ---- the executor ----------------------------------------------------------- *)

  (* Relations are {!B.crel} sorted-run stacks and operators work
     batch-at-a-time over {!Column} encodings.  Every operator keeps the
     emission order of the tuple-at-a-time semantics, so normalization
     ⊕-folds duplicates in the identical sequence and the result is
     bit-identical to the test oracle (test/fuzz/tree_walker.ml).  Children
     are evaluated right side first, as the oracle's [eval a @ eval b]
     does, so samplers draw from [config.rng] in the same sequence. *)

  type cdb = B.crel SMap.t

  (** Per-stratum caches, keyed by plan node id; valid for the duration of
      one stratum's fixed point because cached nodes are invariant there. *)
  type ccache = {
    cc_rels : (int, B.batch) Hashtbl.t;  (** results of maximal invariant subtrees *)
    cc_joins : (int, B.key_index) Hashtbl.t;  (** join right sides, by right child id *)
    cc_antis : (int, B.anti_index) Hashtbl.t;  (** anti-join right sides *)
    cc_norms : (int, B.batch) Hashtbl.t;  (** normalized right sides of −/∩ *)
  }

  let fresh_ccache config =
    (match config.stats with Some s -> s.cache_tables <- s.cache_tables + 1 | None -> ());
    {
      cc_rels = Hashtbl.create 16;
      cc_joins = Hashtbl.create 16;
      cc_antis = Hashtbl.create 16;
      cc_norms = Hashtbl.create 16;
    }

  let crel_of (cdb : cdb) pred : B.crel =
    match SMap.find_opt pred cdb with Some c -> c | None -> B.crel_empty ()

  (* [ceval] wraps [ceval_node] with (a) result caching at maximal invariant
     subtrees — an invariant node reached from a variant parent checks the
     cache; its own subtree is then evaluated cache-less since every
     descendant is invariant too — and (b) per-node profiling.  Wall times
     are inclusive of children. *)
  let rec ceval config mon (cache : ccache option) (cdb : cdb) (p : Plan.t) : B.batch =
    match cache with
    | Some c when p.Plan.invariant -> (
        match Hashtbl.find_opt c.cc_rels p.Plan.pid with
        | Some r ->
            record_hit config p.Plan.pid;
            r
        | None ->
            let r = ceval_timed config mon None cdb p in
            Hashtbl.add c.cc_rels p.Plan.pid r;
            r)
    | _ -> ceval_timed config mon cache cdb p

  and ceval_timed config mon cache cdb (p : Plan.t) : B.batch =
    check_node config mon;
    match config.stats with
    | None -> ceval_node config mon cache cdb p
    | Some s ->
        let t0 = Scallop_utils.Monotonic.now () in
        let r = ceval_node config mon cache cdb p in
        let st = Plan.node_stat s p.Plan.pid in
        st.evals <- st.evals + 1;
        st.tuples <- st.tuples + r.B.n;
        st.seconds <- st.seconds +. (Scallop_utils.Monotonic.now () -. t0);
        r

  and cnormalized_right config mon cache cdb (b : Plan.t) : B.batch =
    match cache with
    | Some c when b.Plan.invariant -> (
        match Hashtbl.find_opt c.cc_norms b.Plan.pid with
        | Some r ->
            record_hit config b.Plan.pid;
            r
        | None ->
            let r = B.sort_normalize (ceval config mon None cdb b) in
            Hashtbl.add c.cc_norms b.Plan.pid r;
            r)
    | _ -> B.sort_normalize (ceval config mon cache cdb b)

  and cjoin_index config mon cache cdb rkeys (right : Plan.t) : B.key_index =
    match cache with
    | Some c when right.Plan.invariant -> (
        match Hashtbl.find_opt c.cc_joins right.Plan.pid with
        | Some ix ->
            record_hit config right.Plan.pid;
            ix
        | None ->
            let ix = B.build_key_index rkeys (ceval config mon None cdb right) in
            Hashtbl.add c.cc_joins right.Plan.pid ix;
            ix)
    | _ -> B.build_key_index rkeys (ceval config mon cache cdb right)

  and ceval_node config mon cache (cdb : cdb) (p : Plan.t) : B.batch =
    match p.Plan.desc with
    | Plan.Empty -> B.empty
    | Plan.Singleton -> Lazy.force B.singleton
    | Plan.Pred pr -> B.crel_force (crel_of cdb pr)
    | Plan.Select (cond, e) -> B.select cond (ceval config mon cache cdb e)
    | Plan.Project (m, { Plan.desc = Plan.Join { lkeys; rkeys; left; right }; _ })
      when List.for_all (function Ram.Access _ -> true | _ -> false) m ->
        (* fused π∘⋈ for pure column selections: identical emission order and
           tags, but the gathers of dropped join columns are never done (the
           recursive-rule hot path is π[k…]( Δ ⋈ edb )) *)
        let index = cjoin_index config mon cache cdb rkeys right in
        let lb = ceval config mon cache cdb left in
        let width = Array.length lb.B.cols + Array.length index.B.ki_src.B.cols in
        let keep = List.map (function Ram.Access i -> i | _ -> assert false) m in
        if lb.B.n = 0 || List.for_all (fun i -> i >= 0 && i < width) keep then
          B.join ~keep:(Array.of_list keep) ~lkeys lb index
        else B.project m (B.join ~lkeys lb index)
    | Plan.Project (m, e) -> B.project m (ceval config mon cache cdb e)
    | Plan.Union (a, b) ->
        let rb = ceval config mon cache cdb b in
        let ra = ceval config mon cache cdb a in
        B.union ra rb
    | Plan.Product (a, b) ->
        let rb = ceval config mon cache cdb b in
        let ra = ceval config mon cache cdb a in
        B.product ra rb
    | Plan.Diff (a, b) ->
        let rb = cnormalized_right config mon cache cdb b in
        let ra = ceval config mon cache cdb a in
        B.diff ra rb
    | Plan.Intersect (a, b) ->
        let rb = cnormalized_right config mon cache cdb b in
        let ra = ceval config mon cache cdb a in
        B.intersect ra rb
    | Plan.Join { lkeys; rkeys; left; right } ->
        let index = cjoin_index config mon cache cdb rkeys right in
        B.join ~lkeys (ceval config mon cache cdb left) index
    | Plan.Antijoin { lkeys; rkeys; left; right } ->
        let index =
          match cache with
          | Some c when right.Plan.invariant -> (
              match Hashtbl.find_opt c.cc_antis right.Plan.pid with
              | Some ix ->
                  record_hit config right.Plan.pid;
                  ix
              | None ->
                  let ix = B.build_anti_index rkeys (ceval config mon None cdb right) in
                  Hashtbl.add c.cc_antis right.Plan.pid ix;
                  ix)
          | _ -> B.build_anti_index rkeys (ceval config mon cache cdb right)
        in
        B.antijoin ~lkeys (ceval config mon cache cdb left) index
    | Plan.One_overwrite e -> B.retag P.one (B.sort_normalize (ceval config mon cache cdb e))
    | Plan.Zero_overwrite e -> B.retag P.zero (B.sort_normalize (ceval config mon cache cdb e))
    | Plan.Aggregate { agg; key_len; arg_len; result_ty; group; body } ->
        let items = B.sort_normalize (ceval config mon cache cdb body) in
        let group =
          match group with
          | Plan.No_group -> `No_group
          | Plan.Implicit -> `Implicit
          | Plan.Domain dom -> `Domain (B.sort_normalize (ceval config mon cache cdb dom))
        in
        B.aggregate agg ~key_len ~arg_len ?result_ty ~group items
    | Plan.Sample { sampler; key_len; group; body } ->
        (* a [Domain] is never evaluated: its groups are the body's keys, as
           for [Implicit] *)
        let key_len =
          match group with Plan.No_group -> 0 | Plan.Implicit | Plan.Domain _ -> key_len
        in
        B.sample config.rng sampler ~key_len (B.sort_normalize (ceval config mon cache cdb body))
    | Plan.Foreign_join { name; args; free_cols; left } ->
        (* the predicate is looked up before [left] is evaluated *)
        let fp = B.foreign_predicate name args in
        B.foreign_join ~name fp ~args ~free_cols (ceval config mon cache cdb left)

  (* ---- strata (Fig. 24, lfp°) -------------------------------------------------- *)

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

  (* Rule-1: tuple only in old — keep.  Rule-2: only newly derived — add.
     Rule-3: both — ⊕-merge ({!B.delta_of_run}).  Head crels are mutable, so
     each round computes {e every} rule's update and delta against the
     round-start state before pushing any of them.  Caches only pay off
     across fixpoint iterations, so a non-recursive stratum (one pass)
     builds none. *)
  let ceval_stratum config mon (cdb : cdb) (sidx : int) (s : Plan.stratum) : cdb =
    mon.m_stratum <- sidx;
    mon.m_iterations <- 0;
    let cache = if s.Plan.recursive then Some (fresh_ccache config) else None in
    let trace = new_trace config sidx in
    let record_iter ?size () = record_iter config trace ?size () in
    let rule_updates cdb plans_of =
      List.map
        (fun (r : Plan.rule) ->
          let evaled = B.concat (List.map (ceval config mon cache cdb) (plans_of r)) in
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
      (* semi-naive, drained by deltas: [delta_of_run] empty for every head
         ⟺ the relations saturated (saturation is reflexive), the naive
         lfp°'s termination test.  Each round after the first evaluates only
         the rules' delta variants, with the round's deltas bound under
         their mangled names. *)
      let rec loop cdb deltas iters =
        if List.for_all (fun (_, (_, d)) -> d.B.n = 0) deltas then begin
          mon.m_iterations <- iters - 1;
          cdb
        end
        else begin
          check_iteration config mon ~next_iter:iters;
          let cdb_with_deltas =
            List.fold_left
              (fun a (h, (_, d)) -> SMap.add (Plan.delta_name h) (B.crel_of_run d) a)
              cdb deltas
          in
          let updates = rule_updates cdb_with_deltas (fun r -> r.Plan.deltas) in
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

  (* ---- programs --------------------------------------------------------------- *)

  (* Each input relation, a strictly sorted batch, seeds its relation. *)
  let cdb_of_inputs (inputs : (string * B.batch) list) : cdb =
    List.fold_left (fun cdb (pred, b) -> SMap.add pred (B.crel_of_run b) cdb) SMap.empty inputs

  (** Evaluate a planned program over its input relations ({!B.input_batches})
      and recover the [out] relations — the entry point {!Session.run} uses.
      Outputs are read directly off the final sorted runs: a forced run
      enumerates in exactly [Tuple.Map.bindings] order. *)
  let eval_plan_program_outputs config (inputs : (string * B.batch) list) (p : Plan.program)
      ~(out : string list) : (string * (Tuple.t * Provenance.Output.t) list) list =
    let mon = make_monitor config.budget in
    if mon.watched then check_wall config mon;
    (* a run stopped by its budget or an error hands the scratch back too *)
    Fun.protect ~finally:B.release (fun () ->
        let cdb = cdb_of_inputs inputs in
        let cdb =
          fst
            (List.fold_left
               (fun (cdb, i) s -> (ceval_stratum config mon cdb i s, i + 1))
               (cdb, 0) p.Plan.strata)
        in
        List.map (fun pred -> (pred, B.to_outputs (B.crel_force (crel_of cdb pred)))) out)

  (** Evaluate one plan tree over strictly sorted input relations, uncached
      (the per-operator differential tests in test/test_columnar.ml). *)
  let eval_plan_columnar config (inputs : (string * B.batch) list) (p : Plan.t) :
      (Tuple.t * P.t) list =
    let mon = make_monitor config.budget in
    B.to_list (ceval config mon None (cdb_of_inputs inputs) p)
end
