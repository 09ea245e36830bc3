(** The adversary catalog: seeded, replayable Byzantine strategies.

    Each entry bundles the Comm {!Ks_core.Comm.behavior} policy for the
    corrupted processors' regular protocol traffic with three
    {!Ks_sim.Types.strategy} constructors — one per network the
    Everywhere stack creates.  All randomness comes from the adversary
    view's RNG, so runs replay bit-identically from their seed.

    The catalog (docs/ATTACKS.md), scenarios first:
    - [honest], [crash], [byz-static], [byz-adaptive] — a corruption
      schedule (none, static or creeping) with a behavior policy;
    - [eclipse] — seize whole level-1 nodes of the protocol's tree;
    - [flood] — static garbage plus amplification-phase request floods;
    - [equivocate] — rushing equivocation: conflicting in-field values per
      recipient parity, plus duplicate conflicting deals on one channel
      (the provable kind);
    - [bad-share-inside] / [bad-share-outside] — off-polynomial share
      floods targeted just inside / just outside the Berlekamp–Welch
      radius of each leaf decode;
    - [hunt-committee] — adaptive corruption of top election-node members
      and observed responders, driven by the rushing view;
    - [coin-split] — per-recipient-parity conflicting votes against every
      election and agreement instance ({!Ks_core.Aeba_coin} biasing);
    - [wire-junk] — malformed payloads (out-of-field words, wrong lengths,
      absurd identifiers) at every decode path.

    The tree the tree-phase strategy targets is an argument: the runners
    below pass the one the protocol builds ({!Ks_core.Everywhere.tree},
    {!Ks_core.Ae_ba.tree}), public knowledge in the paper's model. *)

(** Who falls when, at any message type: a uniformly random set before
    round 0, or the same count corrupted one adaptive pick per round. *)
type schedule = Static | Creeping

type t = {
  name : string;  (** catalog key; [ba_sim run --adversary NAME] *)
  doc : string;  (** one-line description ([ba_sim --list-adversaries]) *)
  fraction : float;  (** default corrupted fraction ([--corrupt] overrides) *)
  schedule : schedule;  (** the corruptions of {!generic_strategy} *)
  attack : bool;
      (** one of the six active attacks (T17's rows): they send crafted
          traffic, so their runs are not held to the fault-free bit and
          round envelopes *)
  behavior : Ks_core.Comm.behavior;
      (** what corrupted processors do with their regular tree traffic *)
  tree :
    params:Ks_core.Params.t ->
    budget:int ->
    tree:Ks_topology.Tree.t ->
    Ks_core.Comm.payload Ks_sim.Types.strategy;
      (** tree-phase strategy corrupting up to [budget] processors,
          aimed at [tree] *)
  a2e :
    params:Ks_core.Params.t ->
    budget:int ->
    carried:int list ->
    coin:(iteration:int -> int -> int option) ->
    Ks_core.Ae_to_e.msg Ks_sim.Types.strategy;
      (** amplification-phase strategy; [carried] are the processors that
          fell during the tournament (already included) *)
  vote : params:Ks_core.Params.t -> budget:int -> bool Ks_sim.Types.strategy;
      (** plain vote nets: Algorithm 5 standalone and the Rabin baseline *)
}

(** All twelve entries, the six scenarios first. *)
val all : t list

val find : string -> t option
val honest : t
val crash : t
val byzantine_static : t
val byzantine_adaptive : t
val eclipse : t
val flood : t

(** [budget ~params ~fraction] — ⌊fraction·n⌋ capped at n − 1 but {e not}
    at the model's (1/3 − ε) allowance: breaking-point sweeps walk past
    1/3 on purpose. *)
val budget : params:Ks_core.Params.t -> fraction:float -> int

(** [budget_of t ~params] — [budget] at [fraction] (default: the entry's). *)
val budget_of : ?fraction:float -> t -> params:Ks_core.Params.t -> int

(** {2 Strategies at the entry's own fraction} *)

val tree_strategy :
  t ->
  params:Ks_core.Params.t ->
  tree:Ks_topology.Tree.t ->
  Ks_core.Comm.payload Ks_sim.Types.strategy

val a2e_strategy :
  t ->
  params:Ks_core.Params.t ->
  coin:(iteration:int -> int -> int option) ->
  carried:int list ->
  Ks_core.Ae_to_e.msg Ks_sim.Types.strategy

val vote_strategy : t -> params:Ks_core.Params.t -> bool Ks_sim.Types.strategy

(** [generic_strategy t ~budget] — the entry's schedule alone, corrupting
    up to [budget] silent processors, at any message type (Phase King,
    Ben-Or). *)
val generic_strategy : t -> budget:int -> 'msg Ks_sim.Types.strategy

(** {2 Runners}

    Each runs a protocol under [t] at [?fraction] (default [t.fraction])
    and gives the tree-phase strategy the tree that protocol builds from
    [seed].  The strategy corrupts exactly the network's budget,
    [budget_of ?fraction t]. *)

val everywhere :
  ?fraction:float ->
  ?retries:int ->
  ?quarantine:bool ->
  params:Ks_core.Params.t ->
  seed:int64 ->
  inputs:bool array ->
  t ->
  Ks_core.Everywhere.result

val ae :
  ?fraction:float ->
  ?retries:int ->
  ?quarantine:bool ->
  params:Ks_core.Params.t ->
  seed:int64 ->
  inputs:bool array ->
  t ->
  Ks_core.Ae_ba.result

(** Rabin's O(n²) baseline for [2⌈log₂ n⌉ + 6] rounds under [t.vote]. *)
val rabin :
  ?fraction:float ->
  params:Ks_core.Params.t ->
  seed:int64 ->
  inputs:bool array ->
  t ->
  Ks_baselines.Outcome.t

(** Exposed for tests: the per-leaf Berlekamp–Welch correction radius the
    bad-share attacks use. *)
val leaf_radius : params:Ks_core.Params.t -> tree:Ks_topology.Tree.t -> int
