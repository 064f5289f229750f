(** Cooperative cancellation tokens.

    A token is a single atomic flag shared between the party that requests
    cancellation (any domain) and the computations that honor it.  Honoring
    is {e cooperative}: long-running code polls {!cancelled} at its own safe
    points — the interpreter does so at fixpoint-iteration and operator
    boundaries, the worker pool between work chunks — so cancellation never
    interrupts a computation mid-step and never leaves shared state torn.

    Tokens are one-shot: once {!cancel}led they stay cancelled.  Create a
    fresh token per unit of cancellable work. *)

type t = bool Atomic.t

(** Raised by {!Pool} jobs interrupted between chunks.  Computations that
    can return a typed per-element error (e.g. batched execution) catch
    cancellation cooperatively instead and never let this escape. *)
exception Cancelled

let create () : t = Atomic.make false

(** Request cancellation.  Idempotent, safe from any domain. *)
let cancel (t : t) = Atomic.set t true

let cancelled (t : t) = Atomic.get t
