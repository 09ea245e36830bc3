(** Dense linear algebra over a finite field: just enough Gaussian
    elimination to drive the reference Berlekamp–Welch decoder in
    [Decode_oracle]. *)

module Make (F : Ks_field.Field_intf.S) : sig
  (** [solve a b] solves [a·x = b] for square or overdetermined [a]
      (rows >= cols).  Returns [Some x] for any solution of the system
      (free variables are set to zero), or [None] if the system is
      inconsistent.  [a] and [b] are not mutated. *)
  val solve : F.t array array -> F.t array -> F.t array option

  (** [rank a] — rank of the matrix. *)
  val rank : F.t array array -> int
end
