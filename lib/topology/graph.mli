(** Undirected near-regular random graphs.

    Theorem 5 runs the unreliable-coin agreement protocol on a random
    k·log n-regular graph; we build such graphs as unions of random
    Hamiltonian cycles (each cycle adds exactly 2 to every degree), then
    drop self-loops and duplicate edges — connectivity and expansion hold
    with overwhelming probability, and degrees are within the duplicate
    slack of the target. *)

type t

(** [random_regular rng ~n ~degree] — a graph on [n >= 3] vertices built
    from [ceil(degree / 2)] random cycles. *)
val random_regular : Ks_stdx.Prng.t -> n:int -> degree:int -> t

(** [complete n] — every pair adjacent (used by baselines and by tiny
    nodes where the sampled degree would exceed [n-1]). *)
val complete : int -> t

val n : t -> int

(** [neighbours g v] — sorted, duplicate-free, never contains [v]. *)
val neighbours : t -> int -> int array

(** [adjacent g u v] — O(log degree) membership test. *)
val adjacent : t -> int -> int -> bool

val degree : t -> int -> int
val max_degree : t -> int

(** [is_connected g] — BFS reachability from vertex 0. *)
val is_connected : t -> bool
