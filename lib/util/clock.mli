(** Monotonic time, via [clock_gettime(CLOCK_MONOTONIC)].

    Use this — never [Unix.gettimeofday] — for deadlines, backoff and
    latency/queue-wait measurement: wall time steps (NTP, manual
    clock changes) would make a deadline fire spuriously or never.
    Trace timestamps use it too: only their differences are ever read.
    Wall time is right only for a timestamp that must relate to
    calendar time. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin.  Strictly ordered with
    respect to other [now_ns] calls in the same process; meaningless
    across processes or reboots. *)

val now_s : unit -> float
(** Same instant as {!now_ns}, in seconds. *)

val elapsed_s : float -> float
(** [elapsed_s t] is the seconds elapsed since [t] (a prior {!now_s}). *)
