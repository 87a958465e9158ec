(** Monotonic time source for the observability subsystem.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via a tiny C stub, so
    durations and deadlines are immune to wall-clock adjustments. Every
    elapsed-time measurement and timeout in [lib/], [bin/] and [bench/]
    — spans, solver stage timings, quorum and quiesce deadlines, the
    nemesis waits, the bench timers — reads this clock, never the
    adjustable wall clock. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin. Strictly non-decreasing
    within a process. *)

val ns_to_seconds : int64 -> float
(** Convert a nanosecond span to seconds. *)

val seconds_since : int64 -> float
(** [seconds_since t0] is [ns_to_seconds (now_ns () - t0)]. *)
