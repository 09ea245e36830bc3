(** Univariate polynomials over {!Zp}.

    Coefficients are stored lowest-degree first.  Values are normalised
    (no trailing zero coefficients) by every operation, so [degree] is
    meaningful; the zero polynomial has degree [-1]. *)

type t

val zero : t
val of_coeffs : Zp.t array -> t
val coeffs : t -> Zp.t array

(** [degree p] — [-1] for the zero polynomial. *)
val degree : t -> int

val equal : t -> t -> bool
val eval : t -> Zp.t -> Zp.t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Zp.t -> t -> t

(** [divmod a b] returns [(q, r)] with [a = q·b + r] and
    [degree r < degree b].  Raises [Division_by_zero] if [b] is zero. *)
val divmod : t -> t -> t * t

(** [random rng ~degree ~const] draws coefficients uniformly for degrees
    1..[degree] and fixes the constant term to [const] — exactly the
    dealer polynomial of Shamir sharing. *)
val random : Ks_stdx.Prng.t -> degree:int -> const:Zp.t -> t

(** [interpolate pts] — the unique polynomial of degree < |pts| through
    the given points.  Raises [Invalid_argument] on duplicate abscissae
    or an empty list. *)
val interpolate : (Zp.t * Zp.t) list -> t

(** [batch_inv a] — pointwise inverses of an array of nonzero elements
    using Montgomery's trick: one field inversion plus [3(k-1)]
    multiplications.  Raises [Division_by_zero] if any entry is zero. *)
val batch_inv : Zp.t array -> Zp.t array

(** [evaluator pts] precomputes barycentric weights for the point set
    (one batch inversion, O(k²) multiplications) and returns a closure
    evaluating the interpolating polynomial at any [x] in O(k)
    multiplications with no division — the right shape when one support
    set is evaluated at many points (robust decoding, share
    verification).  Raises like {!interpolate} on bad point sets. *)
val evaluator : (Zp.t * Zp.t) list -> Zp.t -> Zp.t

(** [lagrange_eval pts x] evaluates the interpolating polynomial at [x]
    directly, without building the intermediate polynomial (a one-shot
    {!evaluator}). *)
val lagrange_eval : (Zp.t * Zp.t) list -> Zp.t -> Zp.t

val pp : Format.formatter -> t -> unit
