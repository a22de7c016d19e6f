(** Exact order statistics over a run's raw samples.

    Percentiles use the nearest-rank rule: the [p]-th percentile of [n]
    samples is the [ceil (p * n / 100)]-th smallest (1-based), clamped to
    [1 .. n]. It always returns a measured sample, never an interpolation
    or a histogram bucket, so a quantile is as fine-grained as the clock
    that took it. *)

val rank : p:int -> int -> int
(** [rank ~p n] is the 1-based rank the [p]-th percentile of [n] samples
    picks.
    @raise Invalid_argument when [n < 1] or [p] is outside [1 .. 100]. *)

val beyond : p:int -> int -> int
(** [beyond ~p n] is the number of samples ranked strictly above
    [rank ~p n] — how many samples lie past the reported percentile. *)

val percentile : p:int -> float array -> float
(** [percentile ~p samples] sorts a copy of [samples] and picks
    [rank ~p (Array.length samples)].
    @raise Invalid_argument as {!rank}. *)

val median : float array -> float
(** [percentile ~p:50]. *)
