(** n-of-n additive secret sharing: the secret is the field sum of all
    shares, all of which are required to reconstruct.

    Not used on the critical path of the protocol (which needs thresholds
    below n), but kept as (a) the simplest instance of a hiding scheme for
    the Lemma 1 property tests and (b) an ablation point for the T7
    experiment — it shows why a threshold scheme is necessary once shares
    start getting lost to corrupt holders. *)

(** [deal rng ~holders secret] — [holders >= 1] shares summing to the
    secret. *)
val deal : Ks_stdx.Prng.t -> holders:int -> Ks_field.Zp.t -> Ks_field.Zp.t array

(** [reconstruct shares] — the field sum. *)
val reconstruct : Ks_field.Zp.t array -> Ks_field.Zp.t
