(** Monotonic time for durations and deadlines.

    [Unix.gettimeofday] follows the wall clock, which NTP may step backwards
    or forwards at any moment — a deadline armed against it can fire hours
    early or never, and an epoch timer can report negative durations.  All
    duration measurement in the system (budget deadlines, epoch timers,
    benchmark clocks) goes through this module instead, which reads
    [CLOCK_MONOTONIC]: an arbitrary-epoch clock that only ever moves
    forward.

    The absolute value of {!now} is meaningless (seconds since an arbitrary
    origin, typically boot); only differences are. *)

external now : unit -> float = "scallop_monotonic_now"
(** Seconds since an arbitrary fixed origin; strictly non-decreasing within
    a process. *)

(** [elapsed_since t0] is [now () -. t0]. *)
let elapsed_since t0 = now () -. t0
