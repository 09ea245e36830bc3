(** Dense linear algebra over Z_p: just enough Gaussian
    elimination to drive the reference Berlekamp–Welch decoder in
    [Decode_oracle]. *)

(** [solve a b] solves [a·x = b] for square or overdetermined [a]
    (rows >= cols).  Returns [Some x] for any solution of the system
    (free variables are set to zero), or [None] if the system is
    inconsistent.  [a] and [b] are not mutated. *)
val solve : Ks_field.Zp.t array array -> Ks_field.Zp.t array -> Ks_field.Zp.t array option

(** [rank a] — rank of the matrix. *)
val rank : Ks_field.Zp.t array array -> int
