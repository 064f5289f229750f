(** Stateful sessions over compiled plans.

    A {!t} is a stateful session around one compiled program: tenants
    [assert_fact]/[retract_fact] into a private EDB overlay and [query]
    answers over the program's static facts plus that overlay.  Compiled
    plans are shared across sessions through {!Session.compile_cached},
    keyed by program source hash — per-tenant state is the overlay and the
    last answer, never the plan.

    {b Contract.}  After any sequence of updates, [query] is bit-identical
    to a cold {!Session.run} on the equivalent final EDB ([run_cold] is
    that oracle).  It holds by construction: a query takes a {!snapshot}
    (the overlay, the canonical order, the version and the outputs, all
    immutable values) and a snapshot whose answer is not cached is exactly
    one such run on the columnar executor, under a fresh provenance
    instance and a copy of the base RNG, so sampler draws and variable ids
    replay as a cold run would.  A repeat at the same version and
    [outputs] returns the cached answer.  DESIGN.md "Stateful sessions"
    records why there is no delta-maintenance path.

    {b Concurrency.}  A session has no lock.  Updates, snapshots and
    [close] are serialized by the caller ({!Durable}'s manager lock; tests
    and [bench incr] use one thread).  {!run} reads only its snapshot, the
    published answer and the counters, which are atomic, so it runs
    without a lock while later updates proceed.

    All protocol misuses (retracting a never-asserted fact, operating on a
    closed session, opening against a mismatched program hash) raise
    {!Session.Error} carrying {!Exec_error.Invalid_input}. *)

open Scallop_core
module SMap = Map.Make (String)

let invalid_input fmt = Session.invalid_input fmt

(* ---- session statistics --------------------------------------------------- *)

type session_stats = {
  mutable queries : int;  (** [query] calls answered *)
  mutable update_batches : int;  (** queries that had updates to fold in *)
  mutable strata_reused : int;
  mutable strata_continued : int;
  mutable strata_recomputed : int;
      (** The three [strata_*] counters are always 0.  They counted the
          per-stratum paths of the delta-maintenance engine, which is gone;
          they stay only because [bench/e2e] still reads them. *)
  mutable full_runs : int;  (** cold runs: one per uncached query *)
}

let empty_session_stats () =
  {
    queries = 0;
    update_batches = 0;
    strata_reused = 0;
    strata_continued = 0;
    strata_recomputed = 0;
    full_runs = 0;
  }

let pp_session_stats ppf (s : session_stats) =
  Fmt.pf ppf "queries=%d updates=%d full=%d" s.queries s.update_batches s.full_runs

(* ---- sessions ------------------------------------------------------------- *)

type t = {
  compiled : Session.compiled;
  spec : Registry.spec;
  hash : string;  (** {!Session.source_hash} of the program source *)
  config : Interp.config;
  base_rng : Scallop_utils.Rng.t;  (** RNG state at open; every run copies it *)
  mutable closed : bool;
  mutable overlay : Provenance.Input.t Tuple.Map.t SMap.t;  (** current dynamic EDB *)
  mutable order : (string * Tuple.t) list;
      (** reverse first-assertion order; defines the canonical fact order a
          cold run receives, so re-asserting keeps a fact's position *)
  mutable version : int;  (** bumped by every update *)
  last : (int * string list option * Session.result) option Atomic.t;
      (** the newest answer published, with the version and [outputs] it
          answers *)
  queries : int Atomic.t;
  updates : int Atomic.t;
  full : int Atomic.t;
}

let ensure_open t = if t.closed then invalid_input "session is closed"

let open_session ?(config = Interp.default_config ()) ?expect_hash ~spec source : t =
  let hash = Session.source_hash source in
  (match expect_hash with
  | Some h when not (String.equal h hash) ->
      invalid_input "program hash mismatch: expected %s, source hashes to %s" h hash
  | _ -> ());
  {
    compiled = Session.compile_cached source;
    spec;
    hash;
    config;
    base_rng = Scallop_utils.Rng.copy config.Interp.rng;
    closed = false;
    overlay = SMap.empty;
    order = [];
    version = 0;
    last = Atomic.make None;
    queries = Atomic.make 0;
    updates = Atomic.make 0;
    full = Atomic.make 0;
  }

let program_hash t = t.hash
let spec t = t.spec
let is_closed t = t.closed

let stats t : session_stats =
  {
    (empty_session_stats ()) with
    queries = Atomic.get t.queries;
    update_batches = Atomic.get t.updates;
    full_runs = Atomic.get t.full;
  }

let relation t pred =
  match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty

(* ---- validation (the write-ahead discipline) -------------------------------

   A durability layer must order "record the op" before "apply the op", yet
   never record an op that the session would reject — a rejected op in the
   log would poison replay.  [assert_fact] and [retract_fact] run these
   checks before they mutate anything, so a caller can validate → log →
   apply and know the apply cannot fail. *)

(** [check_assert t ~pred tuple] validates an assert without applying it:
    raises the same {!Session.Error} [assert_fact] would, and returns the
    tuple coerced to the relation's column types (the canonical form worth
    logging). *)
let check_assert t ~pred tuple : Tuple.t =
  ensure_open t;
  if not (Hashtbl.mem t.compiled.Session.rel_types pred) then
    invalid_input "assert into unknown relation %s" pred;
  Session.coerce_tuple t.compiled pred tuple

(** [check_retract t ~pred tuple] validates a retract without applying it:
    raises the same {!Session.Error} [retract_fact] would, and returns the
    coerced tuple. *)
let check_retract t ~pred tuple : Tuple.t =
  ensure_open t;
  let tuple =
    if Hashtbl.mem t.compiled.Session.rel_types pred then
      Session.coerce_tuple t.compiled pred tuple
    else tuple
  in
  if not (Tuple.Map.mem tuple (relation t pred)) then
    invalid_input "retract %s%a: fact was never asserted" pred Tuple.pp tuple;
  tuple

let assert_fact t ~pred ?prob ?me_group tuple =
  let tuple = check_assert t ~pred tuple in
  let input = { Provenance.Input.prob; me_group } in
  let rel = relation t pred in
  if not (Tuple.Map.mem tuple rel) then t.order <- (pred, tuple) :: t.order;
  t.overlay <- SMap.add pred (Tuple.Map.add tuple input rel) t.overlay;
  t.version <- t.version + 1

let retract_fact t ~pred tuple =
  let tuple = check_retract t ~pred tuple in
  t.overlay <- SMap.add pred (Tuple.Map.remove tuple (relation t pred)) t.overlay;
  t.order <-
    List.filter (fun (p, u) -> not (String.equal p pred && Tuple.equal u tuple)) t.order;
  t.version <- t.version + 1

(* An EDB in canonical order: predicates by first assertion, facts within
   a predicate by first assertion.  This is the fact list the differential
   oracle replays. *)
let facts_of overlay order : (string * (Provenance.Input.t * Tuple.t) list) list =
  let by_pred : (string, (Provenance.Input.t * Tuple.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let pred_order = ref [] in
  List.iter
    (fun (pred, tuple) ->
      match SMap.find_opt pred overlay with
      | None -> ()
      | Some rel -> (
          match Tuple.Map.find_opt tuple rel with
          | None -> ()
          | Some input ->
              let l =
                match Hashtbl.find_opt by_pred pred with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add by_pred pred l;
                    pred_order := pred :: !pred_order;
                    l
              in
              l := (input, tuple) :: !l))
    (List.rev order);
  List.rev_map (fun pred -> (pred, List.rev !(Hashtbl.find by_pred pred))) !pred_order

let current_facts t = facts_of t.overlay t.order

(* ---- queries ---------------------------------------------------------------- *)

(** What a query reads, taken at one instant: the session's facts, the
    version they are at, and the outputs asked for. *)
type snapshot = {
  session : t;
  s_overlay : Provenance.Input.t Tuple.Map.t SMap.t;
  s_order : (string * Tuple.t) list;
  s_version : int;
  s_outputs : string list option;
}

(** Take [t]'s snapshot; raises {!Session.Error} when [t] is closed. *)
let snapshot ?outputs t : snapshot =
  ensure_open t;
  {
    session = t;
    s_overlay = t.overlay;
    s_order = t.order;
    s_version = t.version;
    s_outputs = outputs;
  }

(* One cold run over [s]'s facts under [config], with a fresh provenance
   instance and a copy of the base RNG. *)
let execute s config : Session.result =
  let t = s.session in
  let config = { config with Interp.rng = Scallop_utils.Rng.copy t.base_rng } in
  Session.run ~config ~provenance:(Registry.create t.spec) t.compiled
    ~facts:(facts_of s.s_overlay s.s_order) ?outputs:s.s_outputs ()

(* Publish [r] as the answer at [s]'s version, unless an answer at a newer
   version is published already.  Returns whether [s] folded in updates
   that no earlier published answer had. *)
let rec publish s r =
  let last = s.session.last in
  let old = Atomic.get last in
  let seen = match old with Some (v, _, _) -> v | None -> 0 in
  if s.s_version < seen then false
  else if Atomic.compare_and_set last old (Some (s.s_version, s.s_outputs, r)) then
    s.s_version > seen
  else publish s r

(** Answer [s]: the published answer when it is at [s]'s version and for
    [s]'s outputs, else one cold run, whose answer is published.  [budget]
    replaces the session config's budget for this run.  Raises
    {!Session.Error}; a failed run publishes nothing, so the retry runs
    again. *)
let run ?budget s : Session.result =
  let t = s.session in
  match Atomic.get t.last with
  | Some (v, o, r) when v = s.s_version && o = s.s_outputs ->
      Atomic.incr t.queries;
      r
  | _ ->
      let config =
        match budget with None -> t.config | Some b -> { t.config with Interp.budget = b }
      in
      let r = execute s config in
      if publish s r then Atomic.incr t.updates;
      Atomic.incr t.full;
      Atomic.incr t.queries;
      r

(** Answer over the current facts: {!run} of a fresh snapshot. *)
let query ?outputs ?budget t : Session.result = run ?budget (snapshot ?outputs t)

(** The differential oracle over [s]: a cold run under the session's base
    config, past the cache and the counters. *)
let oracle s : Session.result = execute s s.session.config

(** The differential oracle: a cold {!Session.run} over the session's
    current EDB under a fresh provenance and the session's base config.
    [query] must be bit-identical to this after any update sequence. *)
let run_cold ?outputs t : Session.result = oracle (snapshot ?outputs t)

let close t =
  ensure_open t;
  t.closed <- true
