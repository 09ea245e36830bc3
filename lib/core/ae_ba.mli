(** Almost-everywhere Byzantine agreement — Algorithm 2 (§3.4), plus the
    coin-sequence extension of §3.5.

    The tournament: every processor deals an array of random words to its
    level-1 node; shares climb the tree level by level; at every internal
    level each node runs a Feige election among the arrays arriving from
    its children — bin choices are exposed by [sendDown]/[sendOpen],
    agreed bit-by-bit with {!Aeba_coin}-style voting whose coins are
    revealed one candidate block per round, and the lightest-bin winners'
    remaining blocks are reshared upward ([sendSecretUp]) while losers
    are erased.  At the root (all [n] processors), one final
    agreement-with-coins instance runs on the {e protocol inputs}, its
    coins opened from the surviving arrays.  Theorem 2: a 1 − 1/log n
    fraction of the good processors end up agreeing on a good input bit.

    The surviving arrays also carry one extra word each: opened on
    demand, they form the almost-everywhere global coin subsequence that
    the everywhere-amplification phase consumes (§3.5 / §5). *)

(** Word layout of every candidate array, derived from tree shape and
    parameters. *)
module Layout : sig
  type t = {
    levels : int;
    block_off : int array;  (** per level 2..levels-1: election block offset *)
    r_max : int array;  (** per level: maximum candidates in one election *)
    root_coin_off : int;  (** the word funding one root-agreement round *)
    a2e_coin_off : int;  (** the word contributed to the coin subsequence *)
    total : int;  (** array length in words *)
  }

  val make : Params.t -> Ks_topology.Tree.t -> t
end

type election_stats = {
  level : int;
  node : int;
  candidates : int array;  (** competing array ids, child order *)
  winners : int array;  (** canonical winner ids *)
  good_winner_fraction : float;  (** winners dealt by good processors *)
  member_agreement : float;
      (** fraction of the node's good members whose locally computed
          winner set matches the canonical one *)
}

type result = {
  votes : bool array;  (** every processor's final vote *)
  agreement : float;  (** fraction of good processors on the majority *)
  majority : bool;  (** the majority good vote — the a.e. value *)
  valid : bool;  (** majority equals some good processor's input *)
  elections : election_stats list;
  root_candidates : int array;
  quorum_shortfalls : int;
      (** detected (good member, vote round) pairs whose tally was empty
          — the member heard no votes at all that round (e.g. every
          graph neighbour silent or their messages lost to benign
          faults); the vote loop itself is the retry, so this is a pure
          degradation signal *)
  comm : Comm.t;  (** for meters and further opens *)
  layout : Layout.t;
  coin_view : iteration:int -> int -> int option;
      (** the §3.5 coin subsequence: [coin_view ~iteration p] lazily opens
          contestant [iteration]'s extra word (one more tree open on the
          same network — so the value stays hidden until first demanded)
          and returns [p]'s view of it reduced modulo the label space *)
}

(** [tree ~params ~seed] — the tree [run ~params ~seed] builds.  It is
    public (King–Saia §3): a tree-targeted strategy is aimed at this one. *)
val tree : params:Params.t -> seed:int64 -> Ks_topology.Tree.t

(** [run ~params ~seed ~inputs ~behavior ~strategy] — the full tournament.
    [strategy] decides who gets corrupted and when; [behavior] what
    corrupted processors do inside the tree protocol.  [?retries]
    (default 0) is the per-decode re-request budget passed to
    {!Comm.create} for graceful degradation under benign faults;
    [?quarantine] (default true) arms {!Comm}'s provable-misbehaviour
    quarantine list. *)
val run :
  ?retries:int ->
  ?quarantine:bool ->
  params:Params.t ->
  seed:int64 ->
  inputs:bool array ->
  behavior:Comm.behavior ->
  strategy:Comm.payload Ks_sim.Types.strategy ->
  ?budget:int ->
  unit ->
  result
