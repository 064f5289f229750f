(** Stateful sessions over compiled plans.

    A {!t} is a stateful session around one compiled program: tenants
    [assert_fact]/[retract_fact] into a private EDB overlay and [query]
    answers over the program's static facts plus that overlay.  Compiled
    plans are shared across sessions through {!Session.compile_cached},
    keyed by program source hash — per-tenant state is the overlay and the
    last answer, never the plan.

    {b Contract.}  After any sequence of updates, [query] is bit-identical
    to a cold {!Session.run} on the equivalent final EDB ([run_cold] is
    that oracle).  It holds by construction: a {e dirty} query — one with
    updates since the last successful query — is exactly one such run on
    the columnar executor, under a fresh provenance instance and a copy of
    the base RNG, so sampler draws and variable ids replay as a cold run
    would.  A clean repeat of the last query (no update since, same
    [outputs]) returns the cached answer.  DESIGN.md "Stateful sessions"
    records why there is no delta-maintenance path.

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
  mutable full_runs : int;  (** cold runs: one per dirty query *)
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
  mutex : Mutex.t;
  sstats : session_stats;
  mutable closed : bool;
  mutable overlay : Provenance.Input.t Tuple.Map.t SMap.t;  (** current dynamic EDB *)
  mutable order : (string * Tuple.t) list;
      (** reverse first-assertion order; defines the canonical fact order a
          cold run receives, so re-asserting keeps a fact's position *)
  mutable dirty : bool;  (** updated since the last successful query *)
  mutable last : (string list option * Session.result) option;
      (** the last answer, with the [outputs] it was asked for *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

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
    mutex = Mutex.create ();
    sstats = empty_session_stats ();
    closed = false;
    overlay = SMap.empty;
    order = [];
    dirty = false;
    last = None;
  }

let program_hash t = t.hash
let spec t = t.spec
let is_closed t = locked t (fun () -> t.closed)
let stats t : session_stats = locked t (fun () -> { t.sstats with queries = t.sstats.queries })

let assert_fact t ~pred ?prob ?me_group tuple =
  locked t (fun () ->
      ensure_open t;
      if not (Hashtbl.mem t.compiled.Session.rel_types pred) then
        invalid_input "assert into unknown relation %s" pred;
      let tuple = Session.coerce_tuple t.compiled pred tuple in
      let input = { Provenance.Input.prob; me_group } in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      let existed = Tuple.Map.mem tuple rel in
      t.overlay <- SMap.add pred (Tuple.Map.add tuple input rel) t.overlay;
      if not existed then t.order <- (pred, tuple) :: t.order;
      t.dirty <- true)

let retract_fact t ~pred tuple =
  locked t (fun () ->
      ensure_open t;
      let tuple =
        if Hashtbl.mem t.compiled.Session.rel_types pred then
          Session.coerce_tuple t.compiled pred tuple
        else tuple
      in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      if not (Tuple.Map.mem tuple rel) then
        invalid_input "retract %s%a: fact was never asserted" pred Tuple.pp tuple;
      t.overlay <- SMap.add pred (Tuple.Map.remove tuple rel) t.overlay;
      t.order <-
        List.filter (fun (p, u) -> not (String.equal p pred && Tuple.equal u tuple)) t.order;
      t.dirty <- true)

(* ---- pre-validation (the write-ahead discipline) ---------------------------

   A durability layer must order "record the op" before "apply the op", yet
   never record an op that the session would reject — a rejected op in the
   log would poison replay.  These checks raise exactly the [Invalid_input]
   the mutating call would raise, without mutating anything, so a caller
   can validate → log → apply and know the apply cannot fail. *)

(** [check_assert t ~pred tuple] validates an assert without applying it:
    raises the same {!Session.Error} [assert_fact] would, and returns the
    tuple coerced to the relation's column types (the canonical form worth
    logging). *)
let check_assert t ~pred tuple : Tuple.t =
  locked t (fun () ->
      ensure_open t;
      if not (Hashtbl.mem t.compiled.Session.rel_types pred) then
        invalid_input "assert into unknown relation %s" pred;
      Session.coerce_tuple t.compiled pred tuple)

(** [check_retract t ~pred tuple] validates a retract without applying it:
    raises the same {!Session.Error} [retract_fact] would, and returns the
    coerced tuple. *)
let check_retract t ~pred tuple : Tuple.t =
  locked t (fun () ->
      ensure_open t;
      let tuple =
        if Hashtbl.mem t.compiled.Session.rel_types pred then
          Session.coerce_tuple t.compiled pred tuple
        else tuple
      in
      let rel =
        match SMap.find_opt pred t.overlay with Some r -> r | None -> Tuple.Map.empty
      in
      if not (Tuple.Map.mem tuple rel) then
        invalid_input "retract %s%a: fact was never asserted" pred Tuple.pp tuple;
      tuple)

(* The full current EDB in canonical order: predicates by first assertion,
   facts within a predicate by first assertion.  This is the fact list the
   differential oracle replays. *)
let current_facts_locked t : (string * (Provenance.Input.t * Tuple.t) list) list =
  let by_pred : (string, (Provenance.Input.t * Tuple.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let pred_order = ref [] in
  List.iter
    (fun (pred, tuple) ->
      match SMap.find_opt pred t.overlay with
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
    (List.rev t.order);
  List.rev_map (fun pred -> (pred, List.rev !(Hashtbl.find by_pred pred))) !pred_order

let current_facts t = locked t (fun () -> current_facts_locked t)

(* One cold run over the current EDB under [config], with a fresh
   provenance instance and a copy of the base RNG. *)
let run_locked ?outputs t config : Session.result =
  let config = { config with Interp.rng = Scallop_utils.Rng.copy t.base_rng } in
  Session.run ~config ~provenance:(Registry.create t.spec) t.compiled
    ~facts:(current_facts_locked t) ?outputs ()

(** Answer over the current facts: one cold run when the session is dirty
    or [outputs] differs from the last query's, the cached answer
    otherwise.  [budget] replaces the session config's budget for this
    run.  Raises {!Session.Error}; after a failed run nothing is cached,
    so the retry runs again. *)
let query ?outputs ?budget t : Session.result =
  locked t (fun () ->
      ensure_open t;
      match t.last with
      | Some (o, r) when (not t.dirty) && o = outputs ->
          t.sstats.queries <- t.sstats.queries + 1;
          r
      | _ ->
          let config =
            match budget with None -> t.config | Some b -> { t.config with Interp.budget = b }
          in
          (* the old answer is stale or for other outputs: drop it before
             the run rather than keep it live through the run's GC work *)
          t.last <- None;
          let r = run_locked ?outputs t config in
          (* only a successful run clears the dirty flag: a budget abort
             leaves it set, so the retry runs cold again *)
          t.sstats.queries <- t.sstats.queries + 1;
          if t.dirty then t.sstats.update_batches <- t.sstats.update_batches + 1;
          t.sstats.full_runs <- t.sstats.full_runs + 1;
          t.dirty <- false;
          t.last <- Some (outputs, r);
          r)

let close t =
  locked t (fun () ->
      ensure_open t;
      t.closed <- true)

(** The differential oracle: a cold {!Session.run} over the session's
    current EDB under a fresh provenance and the session's base config.
    [query] must be bit-identical to this after any update sequence. *)
let run_cold ?outputs t : Session.result =
  locked t (fun () ->
      ensure_open t;
      run_locked ?outputs t t.config)
