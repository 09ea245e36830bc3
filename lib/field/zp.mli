(** The prime field Z_p with p = 2^31 - 1 (a Mersenne prime).

    This is the field of all secret sharing in the protocol stack: its
    order comfortably exceeds any number of share holders we simulate,
    and products of two canonical representatives fit in OCaml's native
    63-bit integers, so arithmetic needs no boxing.  Because p is a
    Mersenne prime, multiplication reduces with shifts and adds (2^31 = 1
    mod p) rather than a hardware division. *)

type t = int
(** The representation is exposed as the canonical representative in
    [0, p): protocol code stores wire words as plain ints. *)

(** The modulus, 2147483647. *)
val p : int

val zero : t
val one : t

(** [of_int k] for [0 <= k < p] is the corresponding field element.
    Raises [Invalid_argument] outside that range — silent reduction would
    let distinct protocol words alias the same share. *)
val of_int : int -> t

val to_int : t -> int
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** [inv x] — multiplicative inverse; raises [Division_by_zero] on
    [zero]. *)
val inv : t -> t

(** [div a b] = [mul a (inv b)]. *)
val div : t -> t -> t

(** [pow x e] for [e >= 0]. *)
val pow : t -> int -> t

(** [random rng] — uniform field element. *)
val random : Ks_stdx.Prng.t -> t

(** [random_nonzero rng] — uniform over the multiplicative group. *)
val random_nonzero : Ks_stdx.Prng.t -> t

val pp : Format.formatter -> t -> unit
