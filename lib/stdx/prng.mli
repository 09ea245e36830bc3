(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    simulation is reproducible from a single 64-bit seed.  The generator is
    SplitMix64 (Steele, Lea & Flood 2014): it is fast, has a 64-bit state,
    and supports cheap {e splitting} into statistically independent
    streams, which we use to give each processor, each adversary and each
    experiment repetition its own generator. *)

type t

(** [create seed] returns a fresh generator determined by [seed]. *)
val create : int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)
val split : t -> t

(** [split_at t i] derives the [i]-th child stream of [t] without
    advancing [t]; used to hand one stream per processor. *)
val split_at : t -> int -> t

(** [bits64 t] returns 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform on [0, bound); raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [float t] is uniform on [0, 1). *)
val float : t -> float

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t a] returns a uniformly random element of [a]. *)
val choose : t -> 'a array -> 'a

(** [sample_without_replacement t ~n ~k] returns [k] distinct integers
    drawn uniformly from [0, n).  Raises [Invalid_argument] if [k > n]. *)
val sample_without_replacement : t -> n:int -> k:int -> int array

(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
val permutation : t -> int -> int array
