(** Shared fault counters for resilient training.

    One record travels through a training run and is bumped wherever an
    example is quarantined or rescued instead of crashing the run:

    - [nan_quarantined]: examples whose forward produced a NaN/Inf and were
      skipped before they could poison an optimizer step;
    - [budget_skipped]: examples dropped because they exhausted their
      resource budget even after every degradation rung;
    - [degraded]: examples that succeeded only after re-running under a
      cheaper provenance (see [Registry.degrade]);
    - [malformed]: examples whose symbolic output could not be decoded
      (e.g. a non-float HWF result tuple).

    The counters are observability, not control flow — a fault is counted
    exactly where it is handled. *)

type t = {
  mutable nan_quarantined : int;
  mutable budget_skipped : int;
  mutable degraded : int;
  mutable malformed : int;
}

let create () = { nan_quarantined = 0; budget_skipped = 0; degraded = 0; malformed = 0 }

let total t = t.nan_quarantined + t.budget_skipped + t.degraded + t.malformed

let pp fmt t =
  Fmt.pf fmt "nan=%d budget=%d degraded=%d malformed=%d" t.nan_quarantined t.budget_skipped
    t.degraded t.malformed
