(** A circuit breaker guarding one rung of the provenance degradation
    ladder.

    The service keeps one breaker per ladder rung (see
    {!Scallop_core.Registry.degradation_ladder}).  While a rung keeps
    exhausting budgets, paying for the doomed high-fidelity attempt on
    every request just burns the request's deadline — the breaker
    remembers, and once it {e opens} the service skips straight to the
    cheaper rung without trying.

    Classic three-state machine, timed on an injectable clock:

    - [Closed]: requests flow; [threshold] {e consecutive} degradable
      failures ({!Scallop_core.Exec_error.is_degradable}) open it.  Any
      success resets the streak.
    - [Open]: {!admit} refuses for [cooldown] seconds from the moment it
      opened; after that the next {!admit} moves to half-open and lets the
      caller through as a probe.
    - [Half_open]: attempts are admitted; the first verdict decides —
      a success closes the breaker (fidelity recovered), a failure re-opens
      it for another full cooldown.  Concurrent probes are allowed (each
      worker that asks gets through); their verdicts are applied in arrival
      order, which keeps the machine lock-simple and loses nothing: a
      success still closes it, a failure still re-opens it.

    All operations are thread-safe (one mutex per breaker) and O(1). *)

type state =
  | Closed of { mutable failures : int }  (** consecutive failure streak *)
  | Open of { until : float }  (** refuse until this clock reading *)
  | Half_open

type t = {
  threshold : int;
  cooldown : float;
  now : unit -> float;  (** injectable clock (tests drive it manually) *)
  mutex : Mutex.t;
  mutable state : state;
  mutable opens : int;  (** times the breaker tripped, for stats *)
}

let create ?(threshold = 3) ?(cooldown = 5.0) ~now () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  {
    threshold;
    cooldown;
    now;
    mutex = Mutex.create ();
    state = Closed { failures = 0 };
    opens = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(** May an attempt run at this rung right now?  Moves [Open] to
    [Half_open] once the cooldown has elapsed. *)
let admit t =
  locked t (fun () ->
      match t.state with
      | Closed _ | Half_open -> true
      | Open { until } ->
          if t.now () >= until then begin
            t.state <- Half_open;
            true
          end
          else false)

let trip t =
  t.state <- Open { until = t.now () +. t.cooldown };
  t.opens <- t.opens + 1

(** The attempt at this rung succeeded: close (from half-open) or reset the
    failure streak. *)
let record_success t =
  locked t (fun () ->
      match t.state with
      | Closed c -> c.failures <- 0
      | Half_open -> t.state <- Closed { failures = 0 }
      | Open _ -> () (* stale verdict from before the trip; the cooldown stands *))

(** The attempt at this rung failed degradably (budget exhausted). *)
let record_failure t =
  locked t (fun () ->
      match t.state with
      | Closed c ->
          c.failures <- c.failures + 1;
          if c.failures >= t.threshold then trip t
      | Half_open -> trip t
      | Open _ -> ())

let opens t = locked t (fun () -> t.opens)

let state_name t =
  locked t (fun () ->
      match t.state with
      | Closed _ -> "closed"
      | Open _ -> "open"
      | Half_open -> "half-open")
