(** Descriptive statistics and scaling-law fits used by the experiment
    harness to summarise Monte-Carlo runs and to estimate bit-complexity
    exponents (e.g. checking that measured cost grows like n^0.5·polylog
    rather than n^2). *)

(** [mean xs] — arithmetic mean.  Raises [Invalid_argument] on empty. *)
val mean : float array -> float

(** [variance xs] — unbiased sample variance (0 for singletons). *)
val variance : float array -> float

(** [percentile xs p] with [p] in [0,100], linear interpolation between
    order statistics.  Does not mutate [xs]. *)
val percentile : float array -> float -> float

val median : float array -> float
val min : float array -> float
val max : float array -> float
val sum : float array -> float

(** [linear_fit xs ys] — least-squares fit [y = a + b·x]; returns
    [(a, b, r2)] where [r2] is the coefficient of determination. *)
val linear_fit : float array -> float array -> float * float * float

(** [loglog_slope ns ys] fits [log y = a + b·log n] and returns [(b, r2)]:
    the empirical scaling exponent of [y] in [n].  Points with
    non-positive [y] are dropped. *)
val loglog_slope : float array -> float array -> float * float

(** [wilson_interval ~successes ~trials] — 95% Wilson score confidence
    interval for a binomial proportion, as [(lo, hi)]. *)
val wilson_interval : successes:int -> trials:int -> float * float
