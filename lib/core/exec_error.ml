(** Typed execution diagnostics.

    Every user-reachable failure of the pipeline — parse, desugar, type,
    stratification, compilation, and runtime evaluation including resource
    budgets — is described by a {!t} value rather than an exception-message
    string, so a serving layer can pattern-match on the failure class
    (retry? reject? shed load?) instead of grepping prose.  {!Session}
    re-raises these as [Session.Error of t]; the rendered form ({!pp},
    {!to_string}) is stable and is what the CLI prints.

    [Budget_exceeded] and [Cancelled] are the {e recoverable} class: they
    mean the program was cut off by policy, not that it is wrong.  Batched
    execution reports them per sample and keeps the surviving samples'
    results (see [Session.run_batch]). *)

(** Which budget axis was exhausted (see [Budget.t]). *)
type budget_kind =
  | Deadline  (** wall-clock timeout *)
  | Iterations  (** fixpoint-iteration cap of a stratum *)
  | Tuples  (** cumulative derived-tuple cap *)
  | Node_evals  (** RAM-node evaluation cap *)

type t =
  | Budget_exceeded of {
      kind : budget_kind;
      stratum : int;  (** stratum being evaluated when the budget ran out *)
      iterations : int;  (** fixpoint iterations completed in that stratum *)
      elapsed : float;  (** wall-clock seconds since the run started *)
    }
  | Cancelled of { stratum : int; elapsed : float }
      (** the run's cancellation token fired; [stratum = -1] when the run
          was cancelled before it started (e.g. a not-yet-scheduled batch
          sample) *)
  | Unstratifiable of { head : string; dep : string }
      (** [head] depends on [dep] through negation or aggregation inside a
          recursive cycle *)
  | Parse_error of { msg : string; pos : Ast.pos }
  | Front_error of { msg : string; pos : Ast.pos }  (** desugaring / safety *)
  | Type_error of { msg : string; pos : Ast.pos }
  | Demand_error of { msg : string; pos : Ast.pos }
  | Compile_error of { msg : string; pos : Ast.pos }
  | Non_finite of { what : string }
      (** a NaN or infinity was detected in an example's values or
          gradients; resilient training loops quarantine the example
          (skip + count) instead of letting it poison the optimizer *)
  | Runtime_error of { msg : string }
      (** evaluation failure that is a property of the program/provenance
          pair (unsupported negation, foreign-predicate failure, …) *)
  | Invalid_input of { msg : string }
      (** malformed caller-supplied data: arity/type mismatches of dynamic
          facts, unreadable source files, … *)
  | Overloaded of { depth : int; age : float }
      (** the serving layer shed the request at admission: the queue held
          [depth] requests and its oldest had been waiting [age] seconds
          when the limits were exceeded.  The request was never executed —
          a client may safely retry it elsewhere or later *)
  | Worker_lost of { worker : int; attempts : int }
      (** the worker domain executing the request died or stopped
          heartbeating mid-flight (attempt number [attempts]); the request
          itself may be fine — it is retried against its remaining retry
          budget and this error surfaces only once that is exhausted *)
  | Recovery_failed of { session : string; reason : string }
      (** a durable session's persisted state could not be rebuilt at
          restart (corrupt log segment, program hash mismatch against the
          pinned [expect_hash], an op that no longer replays).  Scoped to
          one session: the serving layer answers that session's requests
          with this diagnostic and keeps every other session live *)
  | Replication_diverged of { session : string; segment : int; reason : string }
      (** a follower's replayed state stopped matching the primary's frame
          stream — per-segment checksum chain mismatch, an LSN that skips
          ahead with no snapshot to bridge it, or a replicated op that no
          longer validates.  The follower quarantines the session rather
          than serve silently-forked answers *)
  | Fenced of { epoch : int; current : int }
      (** this node holds replication epoch [epoch] but the cluster has
          moved to [current]: a follower was promoted and wrote a fencing
          epoch, so a deposed primary must refuse to acknowledge writes
          (the new primary may not have them).  Never retried — the node
          must be restarted as a follower of the new primary *)
  | Ack_timeout of { acked : int; quorum : int; waited : float }
      (** a quorum-acknowledged write saw only [acked] of the [quorum]
          follower acknowledgements it needs within the deadline.  The
          write is applied and locally durable but its replication level is
          unknown; blind retry would duplicate it, so the remedy is
          operational (check follower health), not retry *)

exception Error of t

let raise_error e = raise (Error e)

let kind_name = function
  | Deadline -> "deadline"
  | Iterations -> "iterations"
  | Tuples -> "tuples"
  | Node_evals -> "node-evals"

(** True for failures a serving layer may retry verbatim with a fresh
    attempt: the request itself was never shown to be at fault.
    [Overloaded] means it was shed before executing, [Worker_lost] that the
    executor died under it, [Non_finite] that a numeric fault (flaky
    hardware, injected chaos) poisoned one attempt's arithmetic.  The
    complement is deliberate: [Budget_exceeded] is {e not} transient —
    re-running the same work under the same budget fails deterministically,
    so the remedy is degradation (a cheaper provenance rung), not retry —
    and program/input errors ([Parse_error] … [Invalid_input]) fail every
    attempt identically. *)
let is_transient = function
  | Overloaded _ | Worker_lost _ | Non_finite _ -> true
  | Budget_exceeded _ | Cancelled _ | Unstratifiable _ | Parse_error _ | Front_error _
  | Type_error _ | Demand_error _ | Compile_error _ | Runtime_error _ | Invalid_input _
  | Recovery_failed _ | Replication_diverged _ | Fenced _ | Ack_timeout _ ->
      false

(** True for the failures the graceful-degradation ladder can rescue by
    re-running the work under a cheaper provenance: resource exhaustion,
    where fidelity — not the request — is what must give.  Shared by the
    resilient training layer ({!Scallop_nn.Scallop_layer}) and the serving
    circuit breaker so both degrade on exactly the same class. *)
let is_degradable = function Budget_exceeded _ -> true | _ -> false

let pp ppf = function
  | Budget_exceeded { kind; stratum; iterations; elapsed } ->
      Fmt.pf ppf
        "budget exceeded (%s) in stratum %d after %d fixpoint iteration%s (%.3fs elapsed)"
        (kind_name kind) stratum iterations
        (if iterations = 1 then "" else "s")
        elapsed
  | Cancelled { stratum; elapsed } ->
      if stratum < 0 then Fmt.pf ppf "execution cancelled before it started"
      else Fmt.pf ppf "execution cancelled in stratum %d (%.3fs elapsed)" stratum elapsed
  | Unstratifiable { head; dep } ->
      Fmt.pf ppf
        "program is not stratified: %s depends on %s through negation or aggregation \
         within a recursive cycle"
        head dep
  | Parse_error { msg; pos } -> Fmt.pf ppf "parse error at %a: %s" Ast.pp_pos pos msg
  | Front_error { msg; pos } -> Fmt.pf ppf "error at %a: %s" Ast.pp_pos pos msg
  | Type_error { msg; pos } -> Fmt.pf ppf "type error at %a: %s" Ast.pp_pos pos msg
  | Demand_error { msg; pos } -> Fmt.pf ppf "demand error at %a: %s" Ast.pp_pos pos msg
  | Compile_error { msg; pos } -> Fmt.pf ppf "compile error at %a: %s" Ast.pp_pos pos msg
  | Non_finite { what } -> Fmt.pf ppf "non-finite numerics: %s" what
  | Runtime_error { msg } -> Fmt.string ppf msg
  | Invalid_input { msg } -> Fmt.string ppf msg
  | Overloaded { depth; age } ->
      Fmt.pf ppf "service overloaded: %d request%s queued, oldest waiting %.3fs" depth
        (if depth = 1 then "" else "s")
        age
  | Worker_lost { worker; attempts } ->
      Fmt.pf ppf "worker %d lost while executing the request (attempt %d)" worker attempts
  | Recovery_failed { session; reason } ->
      Fmt.pf ppf "recovery of session %s failed: %s" session reason
  | Replication_diverged { session; segment; reason } ->
      Fmt.pf ppf "replica diverged on session %s in segment %d: %s" session segment reason
  | Fenced { epoch; current } ->
      Fmt.pf ppf "primary fenced: epoch %d deposed by epoch %d" epoch current
  | Ack_timeout { acked; quorum; waited } ->
      Fmt.pf ppf "replication ack timeout: %d/%d follower ack%s after %.3fs" acked quorum
        (if quorum = 1 then "" else "s")
        waited

let to_string = Fmt.to_to_string pp
