(** End-user API: compile once, execute many times under any provenance —
    the OCaml counterpart of the paper's [scallopy] binding (Sec. 5).

    [compile] runs the full pipeline: parse → desugar (front-IR) → safety
    check → type inference/elaboration → stratification → RAM compilation.
    [run] executes a compiled program with a fresh provenance instance,
    extensional facts, and returns recovered outputs together with the
    input-variable ids assigned to each probabilistic fact — which is what
    lets a training loop route ∂y/∂r gradients back to the network that
    produced r (see {!Scallop_nn.Scallop_layer}).

    Every failure surfaces as [Error of Exec_error.t] — a typed diagnostic
    a caller can match on (resource exhaustion vs. program error vs. bad
    input) — rendered for humans by {!error_string}.  Budgets (deadlines,
    iteration/tuple/node caps, cancellation) travel in
    [config.Interp.budget]; {!run_batch} isolates failures per sample.

    Every run executes on the columnar batch executor ({!Batch_ops}) — the
    only engine, samplers and foreign joins included.  {!run} hands it one
    strictly sorted column batch per input predicate, built in one pass
    over the facts {!load_facts} feeds it.  Its test oracle, a
    tuple-at-a-time tree-walker in the test tree, folds the same fact
    sequence into maps, so both engines start from the same facts, tags
    and variable ids. *)

exception Error of Exec_error.t

let error_string = Exec_error.to_string

(** Raise [Error] with an [Invalid_input] diagnostic. *)
let invalid_input fmt =
  Fmt.kstr (fun msg -> raise (Error (Exec_error.Invalid_input { msg }))) fmt

type compiled = {
  ram : Ram.program;
  plan : Plan.program;
      (** RAM annotated with stable node ids and stratum-invariance flags;
          this is what {!run} executes, and what profiling stats key into *)
  rel_types : (string, Value.ty array) Hashtbl.t;
  static_facts : (string * float option * int option * Tuple.t) list;
  queries : string list;
  static_me_groups : int;  (** dynamic me-groups are shifted past these *)
}

let wrap_errors f =
  try f () with
  | Parser.Parse_error (msg, pos) -> raise (Error (Exec_error.Parse_error { msg; pos }))
  | Front.Front_error (msg, pos) -> raise (Error (Exec_error.Front_error { msg; pos }))
  | Typecheck.Type_error (msg, pos) -> raise (Error (Exec_error.Type_error { msg; pos }))
  | Demand.Demand_error (msg, pos) -> raise (Error (Exec_error.Demand_error { msg; pos }))
  | Exec_error.Error e -> raise (Error e)

let compile ?load (source : string) : compiled =
  wrap_errors (fun () ->
      let ast = Parser.parse_program source in
      let patterns = Demand.patterns_of_program ast in
      let front = Front.desugar ?load ast in
      (* Demand (magic-set) transformation for @demand-annotated relations,
         seeded by query atoms with constant arguments. *)
      let front =
        if patterns = [] then front
        else begin
          let rules = Demand.transform patterns front.Front.rules in
          let seeds =
            List.filter_map
              (fun (a, pos) ->
                Option.map
                  (fun (dp, args) ->
                    { Front.pred = dp; prob = None; me_group = None; args; fact_pos = pos })
                  (Demand.seed_of_query pos patterns a))
              front.Front.query_atoms
          in
          { front with Front.rules; facts = front.Front.facts @ seeds }
        end
      in
      Front.check_safety front;
      let typed = Typecheck.check front in
      let strata = Stratify.stratify typed.Typecheck.rules in
      let outputs =
        if typed.Typecheck.queries <> [] then typed.Typecheck.queries
        else
          (* default: every rule head is observable *)
          List.concat_map (List.map (fun (r : Front.crule) -> r.Front.head.Ast.pred)) strata
          |> Scallop_utils.Listx.dedup_stable String.equal
      in
      let ram = Compile.compile_strata strata ~outputs in
      let ram = Opt.optimize_program ram in
      let static_me_groups =
        List.fold_left
          (fun acc (_, _, me, _) -> match me with Some g -> max acc (g + 1) | None -> acc)
          0 typed.Typecheck.facts
      in
      {
        ram;
        plan = Plan.of_program ram;
        rel_types = typed.Typecheck.rel_types;
        static_facts = typed.Typecheck.facts;
        queries = typed.Typecheck.queries;
        static_me_groups;
      })

(* ---- execution ------------------------------------------------------------------ *)

type result = {
  outputs : (string * (Tuple.t * Provenance.Output.t) list) list;
  fact_ids : ((string * Tuple.t) * int) list;
      (** provenance variable id assigned to each tagged input fact *)
  stats : Interp.stats option;
      (** the profiling sink of the config this run executed under, if any;
          render with [Interp.pp_profile compiled.plan] *)
}

(** Coerce an externally provided tuple to the relation's column types, so
    that e.g. an [i32 3] provided for a [usize] column still joins. *)
let coerce_tuple (c : compiled) pred (t : Tuple.t) : Tuple.t =
  match Hashtbl.find_opt c.rel_types pred with
  | None -> t
  | Some tys ->
      if Array.length tys <> Array.length t then
        invalid_input "arity mismatch for %s: expected %d" pred (Array.length tys);
      Array.mapi
        (fun i v ->
          match Value.cast tys.(i) v with
          | Some v' -> v'
          | None ->
              invalid_input "value %a does not fit column %d of %s (%s)" Value.pp v i pred
                (Value.ty_name tys.(i)))
        t

(** Feed a run's input facts to [add] in load order: the program's static
    facts, then [facts] with the caller's me-groups shifted past the static
    ones and every tuple coerced to its relation's column types, each
    tagged by [P.tag_of_input] as it is loaded.  Static facts are already
    at those types ({!Typecheck.check} lowered them there).  Returns the
    provenance variable id assigned to each tagged fact, in load order.
    {!run} builds its input relations from this sequence
    ({!Batch_ops.Make.input_batches}); the test oracle builds its map
    database from it. *)
let load_facts (type tag) (module P : Provenance.S with type t = tag) (c : compiled)
    (facts : (string * (Provenance.Input.t * Tuple.t) list) list)
    ~(add : string -> Tuple.t -> tag -> unit) : ((string * Tuple.t) * int) list =
  let fact_ids = ref [] in
  let load pred (input : Provenance.Input.t) tuple =
    let tag, id = P.tag_of_input input in
    (match id with Some id -> fact_ids := ((pred, tuple), id) :: !fact_ids | None -> ());
    add pred tuple tag
  in
  (* Static (program) facts first — their me-groups use low indices. *)
  List.iter
    (fun (pred, prob, me, tuple) -> load pred { Provenance.Input.prob; me_group = me } tuple)
    c.static_facts;
  (* Dynamic facts: shift caller me-groups past the static ones. *)
  List.iter
    (fun (pred, entries) ->
      List.iter
        (fun ((input : Provenance.Input.t), tuple) ->
          let input =
            match input.Provenance.Input.me_group with
            | Some g -> { input with Provenance.Input.me_group = Some (g + c.static_me_groups) }
            | None -> input
          in
          load pred input (coerce_tuple c pred tuple))
        entries)
    facts;
  List.rev !fact_ids

let run ?(config = Interp.default_config ()) ~(provenance : Provenance.t) (c : compiled)
    ?(facts : (string * (Provenance.Input.t * Tuple.t) list) list = [])
    ?(outputs : string list option) () : result =
  let module P = (val provenance : Provenance.S) in
  let module I = Interp.Make (P) in
  let out_rels = match outputs with Some o -> o | None -> c.ram.Ram.outputs in
  let outputs, fact_ids =
    try
      let inputs = I.B.inputs () in
      let fact_ids = load_facts (module P) c facts ~add:(I.B.input_add inputs) in
      (I.eval_plan_program_outputs config (I.B.input_batches inputs) c.plan ~out:out_rels, fact_ids)
    with
    | Exec_error.Error e -> raise (Error e)
    | Aggregate.Unsupported msg -> raise (Error (Exec_error.Runtime_error { msg }))
  in
  { outputs; fact_ids; stats = config.Interp.stats }

(* ---- batched execution ---------------------------------------------------------- *)

(** Per-sample configuration of a batch rooted at [template]: sample [i]
    draws from [Rng.substream template.rng i] — an independent, reproducible
    stream that does not depend on worker count or scheduling — and gets a
    private profiling sink iff the template profiles.  This is the exact
    config [run_batch] executes sample [i] under; tests use it to build the
    sequential reference map. *)
let batch_config (template : Interp.config) (i : int) : Interp.config =
  {
    template with
    Interp.rng = Scallop_utils.Rng.substream template.Interp.rng i;
    stats = Option.map (fun _ -> Interp.empty_stats ()) template.Interp.stats;
  }

(** [run_batch ~provenance_of c batch] executes the compiled plan [c] once
    per element of [batch] (each element is the [facts] argument of {!run})
    and returns per-sample outcomes in input order: [Ok result] for samples
    that completed, [Error diag] for samples stopped by their budget, by
    cancellation, or by a per-sample input/runtime error.

    Failures are isolated: one sample exhausting its budget (or being handed
    malformed facts) leaves every other sample's result intact, and no
    worker domain is leaked — errors are materialized as values before they
    ever reach the pool.  If [config.Interp.budget]'s cancellation token
    fires, in-flight samples stop at their next safe point and not-yet-
    started samples return [Error (Cancelled { stratum = -1; _ })].

    For the successful samples the semantics are exactly

    {[ Array.mapi
         (fun i facts ->
           run ~config:(batch_config config i) ~provenance:(provenance_of i)
             c ~facts ?outputs ())
         batch ]}

    but the samples execute on [jobs] domains (or on [pool] if given).  The
    equivalence is bit-exact at every worker count because all per-run state
    is private to a sample: [provenance_of i] must return a {e fresh}
    provenance instance (e.g. [fun _ -> Registry.create spec]), each sample
    gets its own RNG substream and interpreter caches, and profiling sinks
    are per-sample and folded into [config]'s sink afterwards, in sample
    order ({!Interp.merge_stats}) — including the sinks of failed samples,
    whose budget-stop counters make partial batches observable in
    [Plan.stats]. *)
let run_batch ?(pool : Scallop_utils.Pool.t option) ?(jobs = 1)
    ?(config = Interp.default_config ()) ~(provenance_of : int -> Provenance.t)
    (c : compiled) ?(outputs : string list option)
    (batch : (string * (Provenance.Input.t * Tuple.t) list) list array) :
    (result, Exec_error.t) Stdlib.result array =
  let batch_cancelled () =
    match config.Interp.budget.Budget.cancel with
    | Some tok -> Scallop_utils.Cancel.cancelled tok
    | None -> false
  in
  (* Total by construction: every failure becomes a value here, so the pool
     only ever sees normal returns and its workers always drain cleanly. *)
  let run_one i facts =
    let cfg = batch_config config i in
    let outcome =
      if batch_cancelled () then begin
        (match cfg.Interp.stats with
        | Some s ->
            s.Interp.budget_stops.Plan.cancelled_stops <-
              s.Interp.budget_stops.Plan.cancelled_stops + 1
        | None -> ());
        Stdlib.Error (Exec_error.Cancelled { stratum = -1; elapsed = 0.0 })
      end
      else
        try Stdlib.Ok (run ~config:cfg ~provenance:(provenance_of i) c ~facts ?outputs ())
        with Error e -> Stdlib.Error e
    in
    (outcome, cfg.Interp.stats)
  in
  let results =
    match pool with
    | Some p -> Scallop_utils.Pool.parallel_mapi p ~f:run_one batch
    | None ->
        if jobs <= 1 || Array.length batch <= 1 then Array.mapi run_one batch
        else
          Scallop_utils.Pool.with_pool jobs (fun p ->
              Scallop_utils.Pool.parallel_mapi p ~f:run_one batch)
  in
  (match config.Interp.stats with
  | Some sink ->
      Array.iter
        (fun (_, stats) ->
          match stats with Some s -> Interp.merge_stats ~into:sink s | None -> ())
        results
  | None -> ());
  Array.map fst results

(** Like {!run_batch} but re-raises the first per-sample failure as
    [Error] — for callers that treat any failed sample as a batch failure
    (the historical behavior). *)
let run_batch_exn ?pool ?jobs ?config ~provenance_of c ?outputs batch : result array =
  run_batch ?pool ?jobs ?config ~provenance_of c ?outputs batch
  |> Array.map (function Stdlib.Ok r -> r | Stdlib.Error e -> raise (Error e))

(** One-shot convenience: compile and run a source string. *)
let interpret ?config ?load ~provenance ?facts ?outputs (source : string) : result =
  let c = compile ?load source in
  run ?config ~provenance c ?facts ?outputs ()

(** Look up one output relation in a result. *)
let output (r : result) pred : (Tuple.t * Provenance.Output.t) list =
  match List.assoc_opt pred r.outputs with Some l -> l | None -> []

(** Probability of a specific tuple in an output relation (0 if absent). *)
let prob_of (r : result) pred tuple : float =
  match
    List.find_opt (fun (t, _) -> Tuple.compare t tuple = 0) (output r pred)
  with
  | Some (_, o) -> Provenance.Output.prob o
  | None -> 0.0

(* ---- shared compiled-plan cache ------------------------------------------------

   Multi-tenant serving compiles the same program text over and over: every
   tenant of a stateful session ({!Incr}) runs the same rules over a
   private EDB overlay.  Compiled programs are immutable once built
   ([rel_types] is only read after compilation), so they can be shared
   freely across sessions and domains.  The cache below memoizes [compile]
   on a 64-bit FNV-1a hash of the source text — the same hash that names a
   program in the serve protocol — with LRU eviction and hit/miss/eviction
   counters, so sharing is measurable (`scallop serve`'s [stats] verb).

   [load]-dependent compilations are not cached: an import loader makes the
   compiled result depend on state outside the source text.  Callers with
   imports must inline them (the serve layer concatenates the base program
   into each request) or fall back to {!compile}. *)

(** 64-bit FNV-1a of the program text, in hex — the identity under which a
    compiled plan is shared across tenants. *)
let source_hash (source : string) : string =
  Fmt.str "%016Lx" (Scallop_utils.Atomic_io.fnv1a64 source)

type plan_cache_stats = { hits : int; misses : int; evictions : int; entries : int }

type plan_cache_entry = {
  pc_source : string;  (** full text, to rule out hash collisions *)
  pc_compiled : compiled;
  mutable pc_last_used : int;  (** LRU clock reading *)
}

let plan_cache : (string, plan_cache_entry) Hashtbl.t = Hashtbl.create 32
let plan_cache_mutex = Mutex.create ()
let plan_cache_clock = ref 0
let plan_cache_limit = 64
let plan_cache_hits = ref 0
let plan_cache_misses = ref 0
let plan_cache_evictions = ref 0

let plan_cache_locked f =
  Mutex.lock plan_cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock plan_cache_mutex) f

(* Evict least-recently-used entries until the cap holds; requires the lock. *)
let evict_over_limit_locked () =
  while Hashtbl.length plan_cache > plan_cache_limit do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.pc_last_used <= e.pc_last_used -> acc
          | _ -> Some (key, e))
        plan_cache None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove plan_cache key;
        incr plan_cache_evictions
    | None -> ()
  done

let plan_cache_stats () : plan_cache_stats =
  plan_cache_locked (fun () ->
      {
        hits = !plan_cache_hits;
        misses = !plan_cache_misses;
        evictions = !plan_cache_evictions;
        entries = Hashtbl.length plan_cache;
      })

(** Drop every cached plan (counters survive). *)
let clear_plan_cache () =
  plan_cache_locked (fun () -> Hashtbl.reset plan_cache)

(** [compile] memoized on {!source_hash}.  A hash collision (same hash,
    different text) bypasses the cache rather than ever serving the wrong
    plan.  Compilation happens outside the cache lock, so a slow compile
    never blocks other tenants; two tenants racing on the same new program
    may both compile, with one result cached. *)
let compile_cached (source : string) : compiled =
  let key = source_hash source in
  let cached =
    plan_cache_locked (fun () ->
        match Hashtbl.find_opt plan_cache key with
        | Some e when String.equal e.pc_source source ->
            incr plan_cache_hits;
            incr plan_cache_clock;
            e.pc_last_used <- !plan_cache_clock;
            Some e.pc_compiled
        | _ ->
            incr plan_cache_misses;
            None)
  in
  match cached with
  | Some c -> c
  | None ->
      let c = compile source in
      plan_cache_locked (fun () ->
          if not (Hashtbl.mem plan_cache key) then begin
            incr plan_cache_clock;
            Hashtbl.replace plan_cache key
              {
                pc_source = source;
                pc_compiled = c;
                pc_last_used = !plan_cache_clock;
              };
            evict_over_limit_locked ()
          end);
      c
