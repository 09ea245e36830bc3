(** (n, t+1) threshold secret sharing (Shamir 1979), the primitive behind
    the paper's [secretShare(s)] (Definition 1).

    A dealer hides a secret as the constant term of a uniformly random
    polynomial of degree [t]; holder [i] receives the evaluation at a
    public non-zero point [x_i].  Any [t+1] shares reconstruct the secret;
    any [t] or fewer reveal nothing (perfect hiding, Lemma 1 of the
    paper).

    The paper sets [t = n/2] ("any t in [n/3, 2n/3] would work"); the
    protocol stack uses [t = (holders - 1) / 2] so that a strict majority
    reconstructs.

    Reconstruction comes in two flavours: [reconstruct] trusts its input
    (use when shares travelled only between good processors), while
    [reconstruct_robust] is a Reed–Solomon decoder that tolerates up to
    [(m - t - 1) / 2] corrupted shares out of [m] — this is what lets a
    good node with a < 1/3 corrupt membership still recover a secret
    during [sendDown].  It list-decodes from windows of [t + 1] shares,
    which usually recovers scattered errors well past that radius, and
    falls back to Gao's unique decoder.

    Every share lives in {!Ks_field.Zp}, the one field of the protocol
    stack. *)

type share = { index : int; value : Ks_field.Zp.t }
(** [index] is the holder's public evaluation point minus one: holder
    [i] holds the evaluation at [of_int (index + 1)], never at zero. *)

(** [deal rng ~threshold ~holders secret] produces [holders] shares such
    that any [threshold + 1] reconstruct and any [threshold] reveal
    nothing.  Requires [0 <= threshold < holders < Zp.p - 1]. *)
val deal : Ks_stdx.Prng.t -> threshold:int -> holders:int -> Ks_field.Zp.t -> share array

(** [reconstruct ~threshold shares] — Lagrange interpolation at zero
    using the first [threshold + 1] distinct shares.  Returns [None] if
    fewer than [threshold + 1] distinct indices are present.  Garbage in,
    garbage out: corrupted shares yield a wrong (but well-defined)
    secret. *)
val reconstruct : threshold:int -> share list -> Ks_field.Zp.t option

(** [reconstruct_robust ~threshold shares] — Reed–Solomon decoding:
    window list decoding, then Gao's unique decoder.  With [m] distinct
    shares of which at most [(m - threshold - 1) / 2] are corrupted,
    returns [Some secret].  Beyond that radius it returns the secret of
    the uniquely best-supported candidate polynomial of degree
    [<= threshold], and [None] on a tie or when no candidate has
    [threshold + 2] supporters. *)
val reconstruct_robust : threshold:int -> share list -> Ks_field.Zp.t option

(** [unique_decode ~threshold pts] — Gao's unique Reed–Solomon decoder
    on points with distinct abscissae: the coefficients (lowest degree
    first, no trailing zeros) of the polynomial of degree [<= threshold]
    that agrees with at least [max (threshold + 2) (m - e)] of the [m]
    points, where [e = (m - threshold - 1) / 2]; [None] when there is
    none.  Such a polynomial is unique when it exists. *)
val unique_decode :
  threshold:int -> (Ks_field.Zp.t * Ks_field.Zp.t) array -> Ks_field.Zp.t array option

(** [deal_at rng ~threshold ~xs secret] — like [deal] but evaluating at
    the points [of_int (xs.(i) + 1)]: used when holders are identified
    by member {e positions} rather than 0..n-1 (the uplink pattern).
    The [xs] must be distinct and non-negative. *)
val deal_at :
  Ks_stdx.Prng.t -> threshold:int -> xs:int array -> Ks_field.Zp.t -> share array

(** Sharing of a sequence of words: the [i]-th element of the result is
    holder [i]'s vector of shares (one per word, independent dealer
    polynomials).  This is [secretShare(s)] for a sequence [s]. *)
val deal_vector :
  Ks_stdx.Prng.t -> threshold:int -> holders:int -> Ks_field.Zp.t array ->
  share array array

(** [deal_vector_at rng ~threshold ~xs words] — vector sharing at given
    points; result.(i) is the share vector (one value per word) for the
    holder at [xs.(i)]. *)
val deal_vector_at :
  Ks_stdx.Prng.t -> threshold:int -> xs:int array -> Ks_field.Zp.t array ->
  Ks_field.Zp.t array array

(** [reconstruct_vectors ~threshold holders] — decode a whole share
    {e vector} at once, exploiting that corruption is per-{e holder}:
    [holders] is a list of [(x_index, vector)] pairs, all vectors of
    equal length.  The good-holder set is identified once (fast path:
    unanimous consistency on a probe word; slow path: the robust decode
    of [reconstruct_robust] on the probe), then every word is a Lagrange
    dot-product.  Words on which the two verification subsets disagree
    fall back to a per-word robust decode.  Returns [None] when no
    degree-[threshold] polynomial explains enough holders — and, as a
    detection hook for graceful degradation, increments [?failures]
    once per such failed decode so callers can retry or report instead
    of silently losing the value. *)
val reconstruct_vectors :
  ?failures:int ref -> threshold:int -> (int * Ks_field.Zp.t array) list ->
  Ks_field.Zp.t array option

(** The functor form of this module, kept only because the whole-system
    benchmark ([perfbench/main.ml]) still applies [Make (Ks_field.Zp)]:
    the benchmark's compatibility point, to be deleted with the
    benchmark's next change.  It re-exports what the benchmark uses. *)
module Make (_ : sig end) : sig
  type nonrec share = share = { index : int; value : Ks_field.Zp.t }

  val deal :
    Ks_stdx.Prng.t -> threshold:int -> holders:int -> Ks_field.Zp.t -> share array

  val deal_vector_at :
    Ks_stdx.Prng.t -> threshold:int -> xs:int array -> Ks_field.Zp.t array ->
    Ks_field.Zp.t array array

  val reconstruct_robust : threshold:int -> share list -> Ks_field.Zp.t option

  val reconstruct_vectors :
    ?failures:int ref -> threshold:int -> (int * Ks_field.Zp.t array) list ->
    Ks_field.Zp.t array option
end
