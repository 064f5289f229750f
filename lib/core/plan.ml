(** Execution plans: SclRam expressions annotated for the interpreter.

    A plan mirrors {!Ram.expr} one-to-one but carries, per node,

    - a {e stable node id} assigned in pre-order when the compiled program is
      planned (once, at compile time) — the key under which the execution
      profiler accumulates per-node statistics and the fixpoint caches store
      join indices and materialized sub-relations;
    - an {e invariance flag}: whether the node's result can change across the
      iterations of its stratum's fixed point.  A subtree is invariant iff it
      reads no head of the stratum (and no delta relation) and contains no
      sampler (samplers consume RNG state, so re-evaluation is observable).
      This is exactly the condition under which the semi-naive delta rewrite
      ({!delta_variants}) leaves a subtree untouched, which is what makes
      caching its value across iterations sound;
    - precomputed evaluation metadata that would otherwise be recomputed per
      output tuple in the interpreter hot path (currently: the free-column
      positions of foreign-predicate joins).

    Delta variants for semi-naive evaluation are derived here too, directly
    on plans: variant spines get fresh node ids, but off-spine subtrees are
    {e shared} with the base plan, so a cached join index built while
    evaluating the full body in iteration one is reused by every delta
    variant in later iterations.

    Plans carry no engine choice: the columnar executor ({!Interp}) runs
    every node kind, samplers and foreign joins included.

    The profiler's statistics types and table printer live here as well,
    next to the node-id assignment they are keyed by; {!Interp} re-exports
    them. *)

type t = {
  pid : int;  (** stable pre-order node id, unique within a planned program *)
  label : string;  (** one-line operator label for profile tables *)
  invariant : bool;  (** result cannot change within the stratum's fixpoint *)
  desc : desc;
}

and desc =
  | Empty
  | Singleton
  | Pred of string
  | Select of Ram.vexpr * t
  | Project of Ram.vexpr list * t
  | Union of t * t
  | Product of t * t
  | Diff of t * t
  | Intersect of t * t
  | Join of { lkeys : int list; rkeys : int list; left : t; right : t }
  | Antijoin of { lkeys : int list; rkeys : int list; left : t; right : t }
  | One_overwrite of t
  | Zero_overwrite of t
  | Aggregate of {
      agg : Ram.aggregator;
      key_len : int;
      arg_len : int;
      result_ty : Value.ty option;
      group : group;
      body : t;
    }
  | Sample of { sampler : Ram.sampler; key_len : int; group : group; body : t }
  | Foreign_join of {
      name : string;
      args : Ram.fp_arg list;
      free_cols : int array;
          (** positions of [F_free] arguments, precomputed once per node
              instead of per result tuple *)
      left : t;
    }

and group = No_group | Implicit | Domain of t

type rule = {
  head : string;
  body : t;
  deltas : t list;
      (** semi-naive delta variants of [body] (empty for non-recursive
          strata); off-spine subtrees are physically shared with [body] *)
}

type stratum = { rules : rule list; recursive : bool; heads : string list }

type program = { strata : stratum list; outputs : string list; node_count : int }

(* Delta relations for semi-naive evaluation live in the same database under
   mangled names that cannot clash with source predicates. *)
let delta_name p = "\001delta:" ^ p

(* ---- planning -------------------------------------------------------------- *)

let rec plan_expr ~next ~(heads : string list) (e : Ram.expr) : t =
  let pid = next () in
  let label = Ram.node_label e in
  let mk invariant desc = { pid; label; invariant; desc } in
  let sub = plan_expr ~next ~heads in
  match e with
  | Ram.Empty -> mk true Empty
  | Ram.Singleton -> mk true Singleton
  | Ram.Pred p -> mk (not (List.mem p heads)) (Pred p)
  | Ram.Select (c, a) ->
      let a = sub a in
      mk a.invariant (Select (c, a))
  | Ram.Project (m, a) ->
      let a = sub a in
      mk a.invariant (Project (m, a))
  | Ram.Union (a, b) ->
      let a = sub a and b = sub b in
      mk (a.invariant && b.invariant) (Union (a, b))
  | Ram.Product (a, b) ->
      let a = sub a and b = sub b in
      mk (a.invariant && b.invariant) (Product (a, b))
  | Ram.Diff (a, b) ->
      let a = sub a and b = sub b in
      mk (a.invariant && b.invariant) (Diff (a, b))
  | Ram.Intersect (a, b) ->
      let a = sub a and b = sub b in
      mk (a.invariant && b.invariant) (Intersect (a, b))
  | Ram.Join { lkeys; rkeys; left; right } ->
      let left = sub left and right = sub right in
      mk (left.invariant && right.invariant) (Join { lkeys; rkeys; left; right })
  | Ram.Antijoin { lkeys; rkeys; left; right } ->
      let left = sub left and right = sub right in
      mk (left.invariant && right.invariant) (Antijoin { lkeys; rkeys; left; right })
  | Ram.One_overwrite a ->
      let a = sub a in
      mk a.invariant (One_overwrite a)
  | Ram.Zero_overwrite a ->
      let a = sub a in
      mk a.invariant (Zero_overwrite a)
  | Ram.Aggregate { agg; key_len; arg_len; result_ty; group; body } ->
      let body = sub body in
      let group, group_inv =
        match group with
        | Ram.No_group -> (No_group, true)
        | Ram.Implicit -> (Implicit, true)
        | Ram.Domain d ->
            let d = sub d in
            (Domain d, d.invariant)
      in
      mk (body.invariant && group_inv) (Aggregate { agg; key_len; arg_len; result_ty; group; body })
  | Ram.Sample { sampler; key_len; group; body } ->
      let body = sub body in
      let group =
        match group with
        | Ram.No_group -> No_group
        | Ram.Implicit -> Implicit
        | Ram.Domain d -> Domain (sub d)
      in
      (* Samplers draw from the config RNG, so re-evaluation is observable:
         never invariant, never cached. *)
      mk false (Sample { sampler; key_len; group; body })
  | Ram.Foreign_join { name; args; left } ->
      let left = sub left in
      let free_cols =
        Array.of_list
          (List.concat (List.mapi (fun i a -> if a = Ram.F_free then [ i ] else []) args))
      in
      mk left.invariant (Foreign_join { name; args; free_cols; left })

(** Delta rewriting for semi-naive evaluation (the paper's runtime is "based
    on semi-naive evaluation specialized for tagged semantics", Sec. 5).
    Returns plans whose union covers every derivation involving at least one
    changed tuple of the stratum's head predicates: each variant replaces one
    recursive leaf with its delta relation.  Derivations among unchanged
    tuples were already ⊕-merged in earlier iterations and are preserved by
    the Rule-1/3 merge, so skipping them is sound.  Stratification guarantees
    that aggregation bodies, sampling bodies and the right-hand sides of
    difference/anti-join never mention the current stratum, so they never
    carry a delta.

    Spine nodes (ancestors of the replaced leaf) get fresh ids and are marked
    variant; everything off the spine is shared with the input plan. *)
let rec delta_plans ~next ~(heads : string list) (p : t) : t list =
  let redo label desc = { pid = next (); label; invariant = false; desc } in
  let on sub rebuild = List.map rebuild (delta_plans ~next ~heads sub) in
  match p.desc with
  | Pred pr when List.mem pr heads -> [ redo ("Δ" ^ pr) (Pred (delta_name pr)) ]
  | Pred _ | Empty | Singleton -> []
  | Select (c, a) -> on a (fun a' -> redo p.label (Select (c, a')))
  | Project (m, a) -> on a (fun a' -> redo p.label (Project (m, a')))
  | One_overwrite a -> on a (fun a' -> redo p.label (One_overwrite a'))
  | Zero_overwrite a -> on a (fun a' -> redo p.label (Zero_overwrite a'))
  | Union (a, b) -> delta_plans ~next ~heads a @ delta_plans ~next ~heads b
  | Product (a, b) ->
      on a (fun a' -> redo p.label (Product (a', b)))
      @ on b (fun b' -> redo p.label (Product (a, b')))
  | Intersect (a, b) ->
      on a (fun a' -> redo p.label (Intersect (a', b)))
      @ on b (fun b' -> redo p.label (Intersect (a, b')))
  | Join { lkeys; rkeys; left; right } ->
      on left (fun l -> redo p.label (Join { lkeys; rkeys; left = l; right }))
      @ on right (fun r -> redo p.label (Join { lkeys; rkeys; left; right = r }))
  | Diff (a, b) -> on a (fun a' -> redo p.label (Diff (a', b)))
  | Antijoin { lkeys; rkeys; left; right } ->
      on left (fun l -> redo p.label (Antijoin { lkeys; rkeys; left = l; right }))
  | Aggregate _ | Sample _ -> []
  | Foreign_join { name; args; free_cols; left } ->
      on left (fun l -> redo p.label (Foreign_join { name; args; free_cols; left = l }))

(** Plan a compiled program, assigning stable pre-order node ids and deriving
    per-rule delta variants for recursive strata. *)
let of_program (rp : Ram.program) : program =
  let counter = ref 0 in
  let next () =
    let i = !counter in
    incr counter;
    i
  in
  let strata =
    List.map
      (fun (s : Ram.stratum) ->
        let heads = List.map (fun (r : Ram.rule) -> r.Ram.head) s.Ram.rules in
        let rules =
          List.map
            (fun (r : Ram.rule) ->
              let body = plan_expr ~next ~heads r.Ram.body in
              let deltas =
                if s.Ram.recursive then delta_plans ~next ~heads body else []
              in
              { head = r.Ram.head; body; deltas })
            s.Ram.rules
        in
        { rules; recursive = s.Ram.recursive; heads })
      rp.Ram.strata
  in
  { strata; outputs = rp.Ram.outputs; node_count = !counter }

(** Plan a standalone expression (tests, inspection); node ids start at 0 and
    are unique only within this expression. *)
let of_expr ?(heads = []) (e : Ram.expr) : t =
  let counter = ref 0 in
  let next () =
    let i = !counter in
    incr counter;
    i
  in
  plan_expr ~next ~heads e

(** Standalone delta variants of a plan (tests, inspection); fresh spine
    nodes get negative ids so they cannot collide with planned ids. *)
let delta_variants ~heads (p : t) : t list =
  let counter = ref 0 in
  let next () =
    decr counter;
    !counter
  in
  delta_plans ~next ~heads p

(* ---- execution statistics ---------------------------------------------------- *)

type node_stat = {
  mutable evals : int;  (** number of times the node was evaluated *)
  mutable tuples : int;  (** total tuples produced across evaluations *)
  mutable seconds : float;  (** total wall time, inclusive of children *)
  mutable hits : int;  (** fixpoint-cache hits that skipped evaluation *)
}

type stratum_trace = {
  stratum_index : int;
  mutable iterations : int;
  mutable delta_sizes : int list;
      (** changed tuples per iteration, most recent first *)
}

(** Budget-exhaustion counters: how many runs folded into this sink were
    stopped by each resource axis (see [Budget.t]).  In a batched execution
    these make graceful degradation observable — e.g. "3 of 64 samples hit
    their deadline this epoch" — without parsing error values. *)
type budget_stops = {
  mutable deadline_stops : int;
  mutable iteration_stops : int;
  mutable tuple_stops : int;
  mutable node_eval_stops : int;
  mutable cancelled_stops : int;
}

type stats = {
  mutable fixpoint_iterations : int;
      (** total fixed-point iterations across strata (the Fig. 10 saturation
          traces are measured through this) *)
  node_stats : (int, node_stat) Hashtbl.t;  (** keyed by plan node id *)
  mutable stratum_traces : stratum_trace list;  (** in stratum order *)
  budget_stops : budget_stops;
  mutable cache_tables : int;
      (** fixpoint cache tables actually constructed.  Caches only pay off
          across iterations, so non-recursive strata must never build one —
          the aggregation-sum-count regression test pins this at 0. *)
}

let empty_budget_stops () =
  { deadline_stops = 0; iteration_stops = 0; tuple_stops = 0; node_eval_stops = 0;
    cancelled_stops = 0 }

let total_budget_stops (b : budget_stops) =
  b.deadline_stops + b.iteration_stops + b.tuple_stops + b.node_eval_stops
  + b.cancelled_stops

let empty_stats () =
  { fixpoint_iterations = 0; node_stats = Hashtbl.create 64; stratum_traces = [];
    budget_stops = empty_budget_stops (); cache_tables = 0 }

(** [merge_stats ~into src] adds [src]'s counters into [into].  Batched
    execution gives every sample its own private sink (workers never share
    one) and folds them into the caller's sink afterwards, in sample order,
    so aggregated profiles are deterministic and race-free. *)
let merge_stats ~(into : stats) (src : stats) =
  into.fixpoint_iterations <- into.fixpoint_iterations + src.fixpoint_iterations;
  into.cache_tables <- into.cache_tables + src.cache_tables;
  Hashtbl.iter
    (fun pid (st : node_stat) ->
      match Hashtbl.find_opt into.node_stats pid with
      | Some dst ->
          dst.evals <- dst.evals + st.evals;
          dst.tuples <- dst.tuples + st.tuples;
          dst.seconds <- dst.seconds +. st.seconds;
          dst.hits <- dst.hits + st.hits
      | None ->
          Hashtbl.add into.node_stats pid
            { evals = st.evals; tuples = st.tuples; seconds = st.seconds; hits = st.hits })
    src.node_stats;
  (* Stratum traces are positional: fold iteration counts into the matching
     stratum, extending the list the first time. *)
  let merge_trace (dst : stratum_trace) (src_tr : stratum_trace) =
    dst.iterations <- dst.iterations + src_tr.iterations;
    dst.delta_sizes <- src_tr.delta_sizes @ dst.delta_sizes
  in
  let rec go dsts srcs =
    match (dsts, srcs) with
    | rest, [] -> rest
    | [], s :: rest ->
        { stratum_index = s.stratum_index; iterations = s.iterations;
          delta_sizes = s.delta_sizes }
        :: go [] rest
    | d :: drest, s :: srest ->
        merge_trace d s;
        d :: go drest srest
  in
  into.stratum_traces <- go into.stratum_traces src.stratum_traces;
  let bi = into.budget_stops and bs = src.budget_stops in
  bi.deadline_stops <- bi.deadline_stops + bs.deadline_stops;
  bi.iteration_stops <- bi.iteration_stops + bs.iteration_stops;
  bi.tuple_stops <- bi.tuple_stops + bs.tuple_stops;
  bi.node_eval_stops <- bi.node_eval_stops + bs.node_eval_stops;
  bi.cancelled_stops <- bi.cancelled_stops + bs.cancelled_stops

let node_stat (s : stats) pid : node_stat =
  match Hashtbl.find_opt s.node_stats pid with
  | Some st -> st
  | None ->
      let st = { evals = 0; tuples = 0; seconds = 0.0; hits = 0 } in
      Hashtbl.add s.node_stats pid st;
      st

(* ---- profile table ------------------------------------------------------------ *)

let truncate_label n s =
  (* count on bytes is wrong for the UTF-8 operator glyphs, but only ever
     over-truncates; keep it simple *)
  if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"

(** Print the per-node execution profile of a planned program: one row per
    RAM node (pre-order, indented by depth) with evaluation count, cache
    hits, tuples produced and inclusive wall time, followed by the
    per-stratum iteration traces.  Shared delta subtrees are printed once
    and referenced by id afterwards. *)
let pp_profile (prog : program) ppf (stats : stats) =
  let visited = Hashtbl.create 64 in
  let row depth (p : t) suffix =
    let pad = String.make (2 * depth) ' ' in
    match Hashtbl.find_opt stats.node_stats p.pid with
    | Some st ->
        Fmt.pf ppf "  %4d %8d %8d %10d %10.3f  %s%s%s@." p.pid st.evals st.hits st.tuples
          (1000.0 *. st.seconds) pad
          (truncate_label 48 p.label)
          suffix
    | None ->
        Fmt.pf ppf "  %4d %8s %8s %10s %10s  %s%s%s@." p.pid "-" "-" "-" "-" pad
          (truncate_label 48 p.label)
          suffix
  in
  let rec walk depth (p : t) =
    if Hashtbl.mem visited p.pid then
      Fmt.pf ppf "  %4d %8s %8s %10s %10s  %s(shared node %d: %s)@." p.pid "" "" "" ""
        (String.make (2 * depth) ' ')
        p.pid
        (truncate_label 32 p.label)
    else begin
      Hashtbl.add visited p.pid ();
      row depth p "";
      match p.desc with
      | Empty | Singleton | Pred _ -> ()
      | Select (_, a) | Project (_, a) | One_overwrite a | Zero_overwrite a -> walk (depth + 1) a
      | Union (a, b) | Product (a, b) | Diff (a, b) | Intersect (a, b) ->
          walk (depth + 1) a;
          walk (depth + 1) b
      | Join { left; right; _ } | Antijoin { left; right; _ } ->
          walk (depth + 1) left;
          walk (depth + 1) right
      | Aggregate { group; body; _ } | Sample { group; body; _ } -> (
          walk (depth + 1) body;
          match group with Domain d -> walk (depth + 1) d | No_group | Implicit -> ())
      | Foreign_join { left; _ } -> walk (depth + 1) left
    end
  in
  Fmt.pf ppf "=== execution profile (%d fixpoint iterations) ===@." stats.fixpoint_iterations;
  Fmt.pf ppf "  %4s %8s %8s %10s %10s  %s@." "id" "evals" "hits" "tuples" "ms" "node";
  List.iteri
    (fun si (s : stratum) ->
      Fmt.pf ppf "stratum %d%s:@." si (if s.recursive then " (recursive)" else "");
      List.iter
        (fun (r : rule) ->
          Fmt.pf ppf " rule %s:@." r.head;
          walk 0 r.body;
          List.iteri
            (fun i d ->
              Fmt.pf ppf " rule %s (delta variant %d):@." r.head i;
              walk 0 d)
            r.deltas)
        s.rules)
    prog.strata;
  List.iter
    (fun (tr : stratum_trace) ->
      Fmt.pf ppf "stratum %d: %d iteration%s" tr.stratum_index tr.iterations
        (if tr.iterations = 1 then "" else "s");
      (match List.rev tr.delta_sizes with
      | [] -> ()
      | sizes ->
          Fmt.pf ppf ", changed tuples per iteration: %a"
            (Fmt.list ~sep:(Fmt.any " ") Fmt.int) sizes);
      Fmt.pf ppf "@.")
    stats.stratum_traces;
  let b = stats.budget_stops in
  if total_budget_stops b > 0 then
    Fmt.pf ppf
      "budget stops: %d deadline, %d iterations, %d tuples, %d node-evals, %d cancelled@."
      b.deadline_stops b.iteration_stops b.tuple_stops b.node_eval_stops
      b.cancelled_stops
