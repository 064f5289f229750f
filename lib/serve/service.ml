(** Supervised inference service runtime.

    Wraps compiled {!Scallop_core.Session} programs into a long-lived query
    engine built to stay up while individual queries blow their budget,
    workers wedge, or load spikes:

    - {b Admission control}: a bounded FIFO queue.  A submission that would
      exceed the depth limit is shed immediately with a typed
      [Exec_error.Overloaded] instead of building an unbounded backlog.
    - {b Deadline propagation}: each request carries an absolute deadline
      ([request_timeout] from submission).  Every execution attempt runs
      under a {!Scallop_core.Budget} whose wall-clock axis is the
      {e remaining} time, so queue wait and earlier attempts eat into the
      same deadline ({!Scallop_core.Budget.constrain}).
    - {b Retry with backoff}: failures classified transient by
      {!Scallop_core.Exec_error.is_transient} (worker lost, poisoned
      numerics) are retried up to [max_retries] times with capped, jittered
      exponential backoff.  Deterministic failures are never retried.
    - {b Circuit-broken degradation}: one {!Breaker} per rung of
      {!Scallop_core.Registry.degradation_ladder}.  A [Budget_exceeded]
      attempt of a one-shot query ({!submit}) records a failure and falls
      one rung; after [breaker_threshold] consecutive failures the rung's
      breaker opens and subsequent queries skip straight to the cheaper
      rung without paying for the doomed attempt, until a half-open probe
      succeeds and restores fidelity.  {!submit_exec} runs at rung 0 only.
    - {b Worker supervision}: requests execute on [jobs] worker domains
      that heartbeat on the service clock — the only domains the service
      spawns.  A watchdog thread on the domain that called {!create}
      cancels attempts whose heartbeat goes stale (via the attempt's
      {!Scallop_utils.Cancel} token), declares workers dead when the cancel
      is ignored past a grace period or the domain exited (chaos kill,
      unexpected exception), respawns a replacement domain, and requeues
      the orphaned request against its remaining retry budget — surfacing
      [Exec_error.Worker_lost] only once that is exhausted.
    - {b Chaos}: every attempt consults the installed {!Chaos.t}; injected
      kills/stalls/synthetic faults flow through exactly the recovery
      machinery above, which is how tests prove the service keeps answering
      under fire.

    Determinism contract: request [id]s are submission ordinals, and
    request [i] executes under [Session.batch_config config.interp i] with
    a fresh provenance per attempt — so with chaos disabled and no faults,
    [submit]/[await] results are bit-identical to
    [Session.run_batch ~config:config.interp] over the same requests in
    submission order, at any worker count.

    Every submitted request receives {e exactly one} terminal outcome:
    a result, a degraded result, or a typed error — shed at admission,
    failed in execution, or cancelled by {!shutdown}.  [shutdown] drains
    the queue, joins the watchdog thread and every domain ever spawned
    (including replaced ones), and fails whatever could not be served. *)

open Scallop_core
module U = Scallop_utils

(* ---- configuration --------------------------------------------------------------- *)

type config = {
  jobs : int;  (** worker domains executing requests *)
  queue_depth : int;  (** max requests waiting (not in flight) *)
  request_timeout : float option;  (** per-request deadline from submission *)
  max_retries : int;  (** transient retries (incl. watchdog requeues) per request *)
  backoff_base : float;  (** first retry backoff, seconds *)
  backoff_cap : float;  (** backoff ceiling, seconds *)
  breaker_threshold : int;  (** consecutive budget failures to open a rung *)
  breaker_cooldown : float;  (** seconds a tripped rung stays open *)
  heartbeat_timeout : float;
      (** a busy worker silent for longer is watchdog-cancelled; must
          exceed the worst legitimate attempt duration *)
  lost_grace : float;
      (** extra silence after the cancel before the worker is declared
          dead and replaced *)
  watchdog_interval : float option;  (** scan period; [None] disables the watchdog *)
  interp : Interp.config;
      (** template interpreter config; request [i] runs under
          [Session.batch_config interp i].  Its budget's cancel token is
          replaced per attempt by the watchdog token. *)
  chaos : Chaos.t;  (** initial fault-injection config (see {!set_chaos}) *)
  now : unit -> float;  (** injectable clock (ages, deadlines, heartbeats, breakers) *)
}

let default_config () =
  {
    jobs = 2;
    queue_depth = 64;
    request_timeout = None;
    max_retries = 2;
    backoff_base = 0.01;
    backoff_cap = 0.5;
    breaker_threshold = 3;
    breaker_cooldown = 5.0;
    heartbeat_timeout = 10.0;
    lost_grace = 1.0;
    watchdog_interval = Some 0.25;
    interp = Interp.default_config ();
    chaos = Chaos.none;
    now = U.Monotonic.now;
  }

(* ---- requests --------------------------------------------------------------------- *)

(** The single terminal verdict of a request. *)
type outcome = {
  response : (Session.result, Exec_error.t) result;
  rung : Registry.spec;  (** provenance rung that produced the verdict *)
  degraded : bool;  (** served (or failed) below full fidelity *)
  attempts : int;  (** execution attempts started (0 if shed at admission) *)
  retries : int;  (** transient retries consumed, incl. watchdog requeues *)
  requeues : int;  (** watchdog recoveries among those retries *)
  latency : float;  (** submission → terminal outcome, seconds *)
}

type ticket = {
  id : int;  (** submission ordinal; also the RNG substream index *)
  submitted_at : float;
  run : rung:Registry.spec -> config:Interp.config -> Session.result;
      (** the execution, given the granted rung and the per-attempt config *)
  ladder : bool;  (** walks the degradation ladder ({!submit}); else rung 0 only *)
  mutable attempts : int;
  mutable retries_used : int;
  mutable requeues : int;
  mutable last_rung : int;  (** ladder index of the most recent attempt *)
  mutable outcome : outcome option;  (** set exactly once, under the service mutex *)
}

let ticket_id (t : ticket) = t.id

(* ---- counters --------------------------------------------------------------------- *)

type stats = {
  mutable submitted : int;
  mutable accepted : int;
  mutable shed : int;  (** rejected at admission ([Overloaded]) *)
  mutable completed : int;  (** terminal outcomes delivered (incl. shed) *)
  mutable ok : int;
  mutable degraded : int;  (** successes served below rung 0 *)
  mutable failed : int;
  mutable retries : int;
  mutable requeues : int;
  mutable watchdog_cancels : int;
  mutable workers_lost : int;
  mutable respawns : int;
  mutable breaker_opens : int;  (** filled in by {!stats} from the breakers *)
  mutable chaos_kills : int;
  mutable chaos_stalls : int;
  mutable chaos_budget_faults : int;
  mutable chaos_nans : int;
  mutable domains_spawned : int;  (** worker domains, replacements included *)
  mutable domains_joined : int;  (** worker domains joined by {!shutdown} *)
}

let empty_stats () =
  {
    submitted = 0;
    accepted = 0;
    shed = 0;
    completed = 0;
    ok = 0;
    degraded = 0;
    failed = 0;
    retries = 0;
    requeues = 0;
    watchdog_cancels = 0;
    workers_lost = 0;
    respawns = 0;
    breaker_opens = 0;
    chaos_kills = 0;
    chaos_stalls = 0;
    chaos_budget_faults = 0;
    chaos_nans = 0;
    domains_spawned = 0;
    domains_joined = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "submitted=%d accepted=%d shed=%d completed=%d ok=%d degraded=%d failed=%d retries=%d \
     requeues=%d watchdog-cancels=%d workers-lost=%d respawns=%d breaker-opens=%d \
     chaos[kills=%d stalls=%d budget=%d nan=%d] domains[spawned=%d joined=%d]"
    s.submitted s.accepted s.shed s.completed s.ok s.degraded s.failed s.retries s.requeues
    s.watchdog_cancels s.workers_lost s.respawns s.breaker_opens s.chaos_kills s.chaos_stalls
    s.chaos_budget_faults s.chaos_nans s.domains_spawned s.domains_joined

(* ---- service state ---------------------------------------------------------------- *)

type worker = {
  slot : int;
  mutable generation : int;  (** bumped on respawn; zombie loops exit on mismatch *)
  mutable domain : unit Domain.t option;
  heartbeat : float Atomic.t;  (** service-clock reading of the last sign of life *)
  alive : bool Atomic.t;  (** tombstoned by the domain body on any exit *)
  mutable current : (ticket * U.Cancel.t) option;  (** in-flight request + its attempt token *)
  mutable watchdog_cancelled : bool;  (** the watchdog fired [current]'s token *)
}

type t = {
  config : config;
  spec : Registry.spec;  (** rung 0: full fidelity *)
  ladder : Registry.spec array;
  breakers : Breaker.t array;  (** one per rung; the last rung always serves *)
  mutex : Mutex.t;
  nonempty : Condition.t;  (** queue gained work, or the service is stopping *)
  done_cond : Condition.t;  (** some request reached its terminal outcome *)
  queue : ticket Queue.t;
  mutable chaos : Chaos.t;
  chaos_ordinal : int Atomic.t;  (** global attempt counter keying chaos decisions *)
  mutable next_id : int;
  mutable stopping : bool;
  workers : worker array;
  mutable watchdog : Thread.t option;
  mutable dead_domains : unit Domain.t list;  (** replaced domains, joined at shutdown *)
  stats : stats;
}

let locked svc f =
  Mutex.lock svc.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock svc.mutex) f

(* Real-time sleep in small cancellable slices.  [heartbeat] keeps the
   watchdog off a worker that is intentionally waiting (backoff); chaos
   stalls pass [None] so the stall looks exactly like a wedged worker. *)
let interruptible_sleep svc ?token ?heartbeat dur =
  let t0 = U.Monotonic.now () in
  let rec go () =
    let remaining = dur -. (U.Monotonic.now () -. t0) in
    if
      remaining > 0.0 && (not svc.stopping)
      && match token with Some tk -> not (U.Cancel.cancelled tk) | None -> true
    then begin
      (match heartbeat with
      | Some w -> Atomic.set w.heartbeat (svc.config.now ())
      | None -> ());
      Unix.sleepf (Float.min 0.01 remaining);
      go ()
    end
  in
  go ()

(* ---- result guardrails ------------------------------------------------------------ *)

(** A recovered output probability that is NaN/Inf poisons anything
    downstream; the service turns it into a typed, transient error. *)
let result_non_finite (r : Session.result) : string option =
  List.find_map
    (fun (pred, rows) ->
      if List.exists (fun (_, o) -> not (Float.is_finite (Provenance.Output.prob o))) rows
      then Some (Fmt.str "output probabilities of %s" pred)
      else None)
    r.Session.outputs

(* Chaos NaN injection: poison the first output row so the fault travels
   through the same guardrail a real numeric fault would. *)
let poison_result (r : Session.result) : Session.result * bool =
  let poisoned = ref false in
  let outputs =
    List.map
      (fun (pred, rows) ->
        ( pred,
          List.map
            (fun (tuple, o) ->
              if !poisoned then (tuple, o)
              else begin
                poisoned := true;
                (tuple, Provenance.Output.O_prob Float.nan)
              end)
            rows ))
      r.Session.outputs
  in
  ({ r with Session.outputs }, !poisoned)

(* ---- completion (all under the service mutex) ------------------------------------- *)

(* Record [ticket]'s terminal outcome.  Caller must hold the mutex and have
   verified the ticket is not yet terminal. *)
let finish_locked svc (ticket : ticket) response ~rung_idx =
  assert (ticket.outcome = None);
  let now = svc.config.now () in
  ticket.outcome <-
    Some
      {
        response;
        rung = svc.ladder.(rung_idx);
        degraded = rung_idx > 0;
        attempts = ticket.attempts;
        retries = ticket.retries_used;
        requeues = ticket.requeues;
        latency = now -. ticket.submitted_at;
      };
  svc.stats.completed <- svc.stats.completed + 1;
  (match response with
  | Ok _ ->
      svc.stats.ok <- svc.stats.ok + 1;
      if rung_idx > 0 then svc.stats.degraded <- svc.stats.degraded + 1
  | Error _ -> svc.stats.failed <- svc.stats.failed + 1);
  Condition.broadcast svc.done_cond

(* Does worker [w] (at generation [my_gen]) still own [ticket]?  False once
   the watchdog replaced the worker or requeued the request. *)
let owns_locked w my_gen (ticket : ticket) =
  w.generation = my_gen
  && (match w.current with Some (tk, _) -> tk == ticket | None -> false)
  && ticket.outcome = None

(* Worker-side completion: applies only if we still own the ticket (the
   watchdog may have taken it over while we computed). *)
let complete svc w my_gen ticket response ~rung_idx =
  locked svc (fun () ->
      if owns_locked w my_gen ticket then begin
        w.current <- None;
        finish_locked svc ticket response ~rung_idx
      end)

let requeue_locked svc (ticket : ticket) =
  ticket.retries_used <- ticket.retries_used + 1;
  ticket.requeues <- ticket.requeues + 1;
  svc.stats.retries <- svc.stats.retries + 1;
  svc.stats.requeues <- svc.stats.requeues + 1;
  Queue.push ticket svc.queue;
  Condition.signal svc.nonempty

(* ---- the attempt loop ------------------------------------------------------------- *)

(* Execute [ticket] to a terminal outcome (or hand it back to the queue /
   the watchdog).  Runs on worker [w]'s domain; raises [Chaos.Killed] out
   of the whole worker when chaos strikes. *)
let execute svc w my_gen (ticket : ticket) =
  let cfg = svc.config in
  let jitter = U.Rng.substream (U.Rng.create 0) ticket.id in
  let deadline = Option.map (fun t -> ticket.submitted_at +. t) cfg.request_timeout in
  let last_rung = if ticket.ladder then Array.length svc.ladder - 1 else 0 in
  let rec attempt r =
    (* Skip rungs whose breaker is open; the cheapest rung always serves. *)
    let r =
      let rec adv r =
        if r >= last_rung then last_rung
        else if Breaker.admit svc.breakers.(r) then r
        else adv (r + 1)
      in
      adv r
    in
    let now = cfg.now () in
    let remaining = Option.map (fun d -> d -. now) deadline in
    match remaining with
    | Some rem when rem <= 0.0 ->
        (* Deadline burned (queueing, earlier attempts) before any more work. *)
        complete svc w my_gen ticket
          (Error
             (Exec_error.Budget_exceeded
                {
                  kind = Exec_error.Deadline;
                  stratum = -1;
                  iterations = 0;
                  elapsed = now -. ticket.submitted_at;
                }))
          ~rung_idx:r
    | _ ->
        let token = U.Cancel.create () in
        let chaos, admitted =
          locked svc (fun () ->
              let admitted = owns_locked w my_gen ticket in
              if admitted then begin
                ticket.attempts <- ticket.attempts + 1;
                ticket.last_rung <- r;
                (* a fresh token voids any cancel verdict on the previous one *)
                w.watchdog_cancelled <- false;
                w.current <- Some (ticket, token)
              end;
              (svc.chaos, admitted))
        in
        if admitted then begin
          Atomic.set w.heartbeat (cfg.now ());
          let d = Chaos.decide chaos ~ordinal:(Atomic.fetch_and_add svc.chaos_ordinal 1) in
          if d.Chaos.kill then begin
            locked svc (fun () -> svc.stats.chaos_kills <- svc.stats.chaos_kills + 1);
            raise Chaos.Killed
          end;
          if d.Chaos.stall > 0.0 then begin
            locked svc (fun () -> svc.stats.chaos_stalls <- svc.stats.chaos_stalls + 1);
            (* no heartbeat while stalled: to the watchdog this is a wedge *)
            interruptible_sleep svc ~token d.Chaos.stall
          end;
          let response =
            if U.Cancel.cancelled token then
              Error
                (Exec_error.Cancelled { stratum = -1; elapsed = cfg.now () -. ticket.submitted_at })
            else if d.Chaos.budget_fault then begin
              locked svc (fun () ->
                  svc.stats.chaos_budget_faults <- svc.stats.chaos_budget_faults + 1);
              Error
                (Exec_error.Budget_exceeded
                   {
                     kind = Exec_error.Deadline;
                     stratum = 0;
                     iterations = 0;
                     elapsed = cfg.now () -. now;
                   })
            end
            else begin
              (* recompute what is left of the deadline: queueing time was
                 already charged above, a stall is charged here *)
              let remaining =
                Option.map (fun d -> Float.max 0.0 (d -. cfg.now ())) deadline
              in
              let run_cfg = Session.batch_config cfg.interp ticket.id in
              let run_cfg =
                {
                  run_cfg with
                  Interp.budget =
                    Budget.constrain run_cfg.Interp.budget ?timeout:remaining ~cancel:token ();
                }
              in
              try
                let result = ticket.run ~rung:svc.ladder.(r) ~config:run_cfg in
                let result =
                  if d.Chaos.nan then begin
                    let result, did = poison_result result in
                    if did then
                      locked svc (fun () -> svc.stats.chaos_nans <- svc.stats.chaos_nans + 1);
                    result
                  end
                  else result
                in
                match result_non_finite result with
                | Some what -> Error (Exec_error.Non_finite { what })
                | None -> Ok result
              with Session.Error e -> Error e
            end
          in
          Atomic.set w.heartbeat (cfg.now ());
          handle r response
        end
  and handle r response =
    match response with
    | Ok _ ->
        if ticket.ladder then Breaker.record_success svc.breakers.(r);
        complete svc w my_gen ticket response ~rung_idx:r
    | Error e when ticket.ladder && Exec_error.is_degradable e ->
        Breaker.record_failure svc.breakers.(r);
        if r < last_rung then attempt (r + 1)
        else complete svc w my_gen ticket response ~rung_idx:r
    | Error (Exec_error.Cancelled _) -> (
        (* Either the watchdog decided we were wedged — requeue the request
           against its retry budget and free this worker — or a stale token
           fired after ownership moved; in both cases the mutex decides. *)
        let verdict =
          locked svc (fun () ->
              if not (owns_locked w my_gen ticket) then `Abandoned
              else if w.watchdog_cancelled then begin
                w.watchdog_cancelled <- false;
                w.current <- None;
                if ticket.retries_used >= cfg.max_retries then `Exhausted
                else begin
                  requeue_locked svc ticket;
                  `Requeued
                end
              end
              else `Terminal)
        in
        match verdict with
        | `Exhausted ->
            locked svc (fun () ->
                if ticket.outcome = None then
                  finish_locked svc ticket
                    (Error
                       (Exec_error.Worker_lost { worker = w.slot; attempts = ticket.attempts }))
                    ~rung_idx:ticket.last_rung)
        | `Requeued | `Abandoned -> ()
        | `Terminal -> complete svc w my_gen ticket response ~rung_idx:r)
    | Error e when Exec_error.is_transient e ->
        let can_retry =
          locked svc (fun () ->
              if (not (owns_locked w my_gen ticket)) || ticket.retries_used >= cfg.max_retries
              then false
              else begin
                ticket.retries_used <- ticket.retries_used + 1;
                svc.stats.retries <- svc.stats.retries + 1;
                true
              end)
        in
        if can_retry then begin
          let n = ticket.retries_used in
          let backoff =
            Float.min cfg.backoff_cap
              (cfg.backoff_base *. Float.pow 2.0 (float_of_int (n - 1)))
            *. (0.5 +. U.Rng.float jitter)
          in
          interruptible_sleep svc ~heartbeat:w backoff;
          attempt r
        end
        else complete svc w my_gen ticket response ~rung_idx:r
    | Error _ -> complete svc w my_gen ticket response ~rung_idx:r
  in
  attempt 0

(* ---- worker & watchdog loops ------------------------------------------------------ *)

let claim svc w my_gen =
  locked svc (fun () ->
      let rec wait () =
        if w.generation <> my_gen then None
        else if not (Queue.is_empty svc.queue) then begin
          let ticket = Queue.pop svc.queue in
          w.watchdog_cancelled <- false;
          w.current <- Some (ticket, U.Cancel.create ());
          Atomic.set w.heartbeat (svc.config.now ());
          Some ticket
        end
        else if svc.stopping then None
        else begin
          Condition.wait svc.nonempty svc.mutex;
          wait ()
        end
      in
      wait ())

let rec worker_loop svc w my_gen =
  match claim svc w my_gen with
  | None -> ()
  | Some ticket ->
      execute svc w my_gen ticket;
      worker_loop svc w my_gen

(* Requires the mutex (or single-threaded startup). *)
let spawn_worker_locked svc w =
  let my_gen = w.generation in
  svc.stats.domains_spawned <- svc.stats.domains_spawned + 1;
  Domain.spawn (fun () ->
      (* Chaos kills and unexpected exceptions end the domain without
         completing its request; the tombstone is what the watchdog sees. *)
      (try worker_loop svc w my_gen with _ -> ());
      Atomic.set w.alive false)

(* The worker under [w] is gone (domain exited or wedged past grace):
   retire its domain, respawn a replacement, and recover the in-flight
   request.  Requires the mutex. *)
let declare_lost_locked svc w (ticket : ticket) =
  svc.stats.workers_lost <- svc.stats.workers_lost + 1;
  w.current <- None;
  w.generation <- w.generation + 1;
  (match w.domain with
  | Some d -> svc.dead_domains <- d :: svc.dead_domains
  | None -> ());
  w.domain <- None;
  w.watchdog_cancelled <- false;
  if not svc.stopping then begin
    Atomic.set w.alive true;
    Atomic.set w.heartbeat (svc.config.now ());
    w.domain <- Some (spawn_worker_locked svc w);
    svc.stats.respawns <- svc.stats.respawns + 1
  end;
  if ticket.outcome = None then begin
    if ticket.retries_used >= svc.config.max_retries || svc.stopping then
      finish_locked svc ticket
        (Error (Exec_error.Worker_lost { worker = w.slot; attempts = ticket.attempts }))
        ~rung_idx:ticket.last_rung
    else requeue_locked svc ticket
  end

let watchdog_scan svc =
  let cfg = svc.config in
  locked svc (fun () ->
      Array.iter
        (fun w ->
          match w.current with
          | None -> ()
          | Some (ticket, token) ->
              if not (Atomic.get w.alive) then declare_lost_locked svc w ticket
              else begin
                let stale = cfg.now () -. Atomic.get w.heartbeat in
                if stale > cfg.heartbeat_timeout then
                  if not w.watchdog_cancelled then begin
                    w.watchdog_cancelled <- true;
                    svc.stats.watchdog_cancels <- svc.stats.watchdog_cancels + 1;
                    U.Cancel.cancel token
                  end
                  else if stale > cfg.heartbeat_timeout +. cfg.lost_grace then
                    (* the cancel went unheeded: wedged beyond recovery *)
                    declare_lost_locked svc w ticket
              end)
        svc.workers)

let rec watchdog_loop svc interval =
  interruptible_sleep svc interval;
  if not svc.stopping then begin
    watchdog_scan svc;
    watchdog_loop svc interval
  end

(* ---- public API ------------------------------------------------------------------- *)

let create ?(config = default_config ()) (spec : Registry.spec) : t =
  if config.jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  if config.queue_depth < 0 then invalid_arg "Service.create: queue_depth must be >= 0";
  let ladder = Array.of_list (Registry.degradation_ladder spec) in
  let svc =
    {
      config;
      spec;
      ladder;
      breakers =
        Array.map
          (fun _ ->
            Breaker.create ~threshold:config.breaker_threshold
              ~cooldown:config.breaker_cooldown ~now:config.now ())
          ladder;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      done_cond = Condition.create ();
      queue = Queue.create ();
      chaos = config.chaos;
      chaos_ordinal = Atomic.make 0;
      next_id = 0;
      stopping = false;
      workers =
        Array.init config.jobs (fun slot ->
            {
              slot;
              generation = 0;
              domain = None;
              heartbeat = Atomic.make (config.now ());
              alive = Atomic.make true;
              current = None;
              watchdog_cancelled = false;
            });
      watchdog = None;
      dead_domains = [];
      stats = empty_stats ();
    }
  in
  Array.iter (fun w -> w.domain <- Some (spawn_worker_locked svc w)) svc.workers;
  (* The watchdog mostly sleeps, so it is a thread on the caller's domain:
     an extra domain would have to join every stop-the-world minor GC. *)
  (match config.watchdog_interval with
  | Some interval when interval > 0.0 ->
      svc.watchdog <- Some (Thread.create (fun () -> watchdog_loop svc interval) ())
  | _ -> ());
  svc

(** Swap the fault-injection config of a running service (tests/bench). *)
let set_chaos svc chaos = locked svc (fun () -> svc.chaos <- chaos)

let ladder svc = Array.to_list svc.ladder
let breaker_states svc = Array.to_list (Array.map Breaker.state_name svc.breakers)

let enqueue svc ~ladder run : ticket =
  locked svc (fun () ->
      let now = svc.config.now () in
      let id = svc.next_id in
      svc.next_id <- id + 1;
      svc.stats.submitted <- svc.stats.submitted + 1;
      let ticket =
        {
          id;
          submitted_at = now;
          run;
          ladder;
          attempts = 0;
          retries_used = 0;
          requeues = 0;
          last_rung = 0;
          outcome = None;
        }
      in
      let depth = Queue.length svc.queue in
      let oldest_age =
        if Queue.is_empty svc.queue then 0.0 else now -. (Queue.peek svc.queue).submitted_at
      in
      if svc.stopping || depth >= svc.config.queue_depth then begin
        svc.stats.shed <- svc.stats.shed + 1;
        finish_locked svc ticket
          (Error (Exec_error.Overloaded { depth; age = oldest_age }))
          ~rung_idx:0
      end
      else begin
        svc.stats.accepted <- svc.stats.accepted + 1;
        Queue.push ticket svc.queue;
        Condition.signal svc.nonempty
      end;
      ticket)

(** Submit an execution.  It runs on a worker domain under the service's
    deadline, retry, chaos and watchdog supervision, at rung 0 with the
    per-attempt constrained config, and neither walks the ladder nor
    reads or feeds a breaker: stateful sessions pin their own provenance.
    Never blocks and never raises: an admission rejection (queue full or
    service stopping) returns a ticket whose outcome is already
    [Error (Overloaded _)]. *)
let submit_exec svc run : ticket = enqueue svc ~ladder:false run

(** Submit a one-shot query: [Session.run] under the rung the degradation
    ladder grants. *)
let submit svc ?outputs ?(facts = []) (compiled : Session.compiled) : ticket =
  enqueue svc ~ladder:true (fun ~rung ~config ->
      Session.run ~config ~provenance:(Registry.create rung) compiled ~facts ?outputs ())

(** Block until the ticket's terminal outcome. *)
let await svc (ticket : ticket) : outcome =
  locked svc (fun () ->
      while ticket.outcome = None do
        Condition.wait svc.done_cond svc.mutex
      done;
      Option.get ticket.outcome)

(** Non-blocking outcome check. *)
let poll svc (ticket : ticket) : outcome option = locked svc (fun () -> ticket.outcome)

(** Snapshot of the counters (plus live breaker-open total). *)
let stats svc : stats =
  locked svc (fun () ->
      let s = svc.stats in
      {
        s with
        breaker_opens = Array.fold_left (fun acc b -> acc + Breaker.opens b) 0 svc.breakers;
      })

(** Stop accepting, drain the queue, join the watchdog thread and every
    domain ever spawned (workers and replacements), then fail whatever
    request could not be served with a typed [Cancelled].  After
    [shutdown] returns, the domain count is back to its pre-[create]
    baseline.  Idempotent. *)
let shutdown svc =
  let watchdog, to_join =
    locked svc (fun () ->
        svc.stopping <- true;
        Condition.broadcast svc.nonempty;
        let ds =
          List.filter_map Fun.id (Array.to_list (Array.map (fun w -> w.domain) svc.workers))
          @ svc.dead_domains
        in
        let wd = svc.watchdog in
        Array.iter (fun w -> w.domain <- None) svc.workers;
        svc.dead_domains <- [];
        svc.watchdog <- None;
        (wd, ds))
  in
  (* [stopping] ends the watchdog's sleep within one slice *)
  Option.iter Thread.join watchdog;
  List.iter
    (fun d ->
      Domain.join d;
      locked svc (fun () -> svc.stats.domains_joined <- svc.stats.domains_joined + 1))
    to_join;
  (* Whatever is left had no worker to serve it (all died while stopping). *)
  locked svc (fun () ->
      let fail (ticket : ticket) =
        if ticket.outcome = None then
          finish_locked svc ticket
            (Error (Exec_error.Cancelled { stratum = -1; elapsed = 0.0 }))
            ~rung_idx:ticket.last_rung
      in
      Queue.iter fail svc.queue;
      Queue.clear svc.queue;
      Array.iter
        (fun w ->
          match w.current with
          | Some (ticket, _) ->
              w.current <- None;
              fail ticket
          | None -> ())
        svc.workers)

(** [with_service ?config spec f]: create, run [f], always shut down. *)
let with_service ?config spec f =
  let svc = create ?config spec in
  Fun.protect ~finally:(fun () -> shutdown svc) (fun () -> f svc)
