(** Protocol parameters.

    The paper states every constant asymptotically (k₁ = log³n,
    q = log^δ n, w = 5c·log³n, …).  Taken literally those values only
    separate from n itself for astronomically large n, so — as laid out in
    DESIGN.md §2 — we keep the formulas' {e structure} and expose two
    profiles:

    - {!theoretical}: the paper's own formulas, for inspecting what the
      protocol would look like at scale (buildable, rarely runnable);
    - {!practical}: every polylog factor scaled to Θ(log n) and the tree
      height pinned, so that the asymptotic {e shape} (√n vs n², the 1/3
      threshold, the 1 − 1/log n agreement fractions) remains measurable
      at sizes a workstation simulates.  Measured on a 2-core machine, one
      [ba_sim run --protocol everywhere] at the default seed takes
      2.8 / 15.3 / 43 / 135 s honest at n = 64 / 256 / 512 / 1024, and
      4.8–5.5 s under byz-static at n = 64 (13.8–15.7 s when robust
      decoding still fell back to Berlekamp–Welch). *)

type share_threshold_policy =
  | Half_minus_one  (** t = ⌈holders/2⌉ − 1: the paper's t = n/2 choice —
                        strongest hiding, no error-correcting slack *)
  | Third  (** t = ⌈holders/3⌉ − 1: still hides against < 1/3 corrupt
               holders and leaves enough Reed–Solomon redundancy to
               correct the < 1/3 wrong shares a good node can contain *)

type t = {
  n : int;  (** number of processors *)
  epsilon : float;  (** the adversary controls < (1/3 − ε)·n processors *)
  q : int;  (** tree arity *)
  k1 : int;  (** leaf node size *)
  growth : int;  (** node-size growth factor per level (paper: q) *)
  up_degree : int;  (** uplinks per member *)
  ell_degree : int;  (** ℓ-links per member *)
  winners : int;  (** w — arrays surviving each election *)
  aeba_degree : int;  (** degree of the intra-node agreement graph *)
  aeba_rounds : int;  (** rounds of Algorithm 5 per agreement instance *)
  max_election_rounds : int;
      (** cap on bin-choice BA rounds per election (the paper runs r
          rounds — one per candidate block — which practicality caps) *)
  a2e_requests_per_label : int;  (** a·log n of Algorithm 3 *)
  a2e_labels : int;  (** √n — the request-label space *)
  a2e_iterations : int;  (** repetitions of the Algorithm 3 loop *)
  share_policy : share_threshold_policy;
  header_bits : int;
      (** accounted per-message physical framing overhead, added on top
          of each payload's exact encoded size *)
}

(** [practical n] — the laptop-scale profile (DESIGN.md §5).  Requires
    [n >= 16]. *)
val practical : int -> t

(** [theoretical n] — the paper's own formulas with c = 1, δ = 8.  May
    produce parameters far larger than [n] for small [n]; intended for
    inspection and for the parameter-growth table, not simulation. *)
val theoretical : int -> t

(** [corruption_budget t] — ⌊(1/3 − ε)·n⌋. *)
val corruption_budget : t -> int

(** [share_threshold t ~holders] — the Shamir threshold used when dealing
    to [holders] processors under the profile's policy. *)
val share_threshold : t -> holders:int -> int

(** [tree_config t] — the [Ks_topology.Tree.config] this profile
    induces. *)
val tree_config : t -> Ks_topology.Tree.config

(** [validate t] — raises [Invalid_argument] describing the first
    inconsistency (e.g. [winners] exceeding candidates), or returns [t]. *)
val validate : t -> t

val pp : Format.formatter -> t -> unit
