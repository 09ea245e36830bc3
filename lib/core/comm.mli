(** Tree communication layer: [secretShare], [sendSecretUp], [sendDown]
    and [sendOpen] (§3.2.3), with the iterated-share bookkeeping of
    Definition 1.

    A candidate array is a vector of words.  After the initial deal it
    exists only as {e share instances}: the 1-shares held by the members
    of the candidate's level-1 node, then — after each [reshare_up] — as
    i-shares held by members of the level-i ancestor node, every lower
    level having been {e erased}.  The instance tree (who holds a share
    of which share) is determined purely by member {e positions} and the
    position-based uplink pattern, so one {!Structure} is shared by every
    candidate.

    Corrupted holders participate according to a {!behavior} policy
    (follow / silent / garbage / flip / equivocate), wired into the network's
    adversary strategy by {!create}: the adversary decides {e who} falls
    and {e when} through its [Ks_sim] strategy; this policy decides what
    the fallen do inside the tree protocol.

    {b Dense share state.}  Share state lives in flat arrays, not hash
    tables.  A candidate's held shares are an array over the instances
    of its level.  An open sorts its ranges by candidate once; [r] is the
    range index.  At level [l], the candidate's election node of level
    [level] covers the [width = q^(level - l)] nodes from [lo = enode ·
    width], and a per-instance table is indexed
    [(r · width + node − lo) · count_l + inst].  Ascending index order is
    ascending (cand, node, inst), so sends, decodes and [Garbage] draws
    follow that order without sorting, whatever the order of [ranges].  A
    share addressed to a node outside the candidate's subtree has no slot
    and is dropped before any quarantine check.

    {b The slot is the witness.}  Each share payload's route check fixes
    the (receiver, sender) pair from the slot it names, so the first
    value admitted into a slot is both the value kept and the witness
    against equivocation: a conflicting later value from the same sender
    is evidence, an identical one is a harmless duplicate, and neither
    counts twice.  Slots are a held instance for [Deal]/[Share_up]; (child
    node, instance) for [Share_down]; (leaf, receiver, sender position)
    for [Leaf_val]; and (election member, ℓ-link, sender position) for
    [Open_val]. *)

type word = int
(** Field elements of Z_p (p = 2³¹ − 1), canonical representatives. *)

(** What corrupted processors do inside the tree protocol. *)
type behavior =
  | Follow  (** behave honestly (pure eavesdropping adversary) *)
  | Silent  (** withhold every message (crash) *)
  | Garbage  (** replace every word by a fresh uniform one *)
  | Flip  (** add one to every word (consistent equivocation) *)
  | Equivocate
      (** rushing equivocation: a different in-field lie per recipient
          parity class, so different recipients of the "same" share see
          conflicting values within the round *)

type payload =
  | Deal of { cand : int; inst : int; words : word array }
  | Share_up of { cand : int; inst : int; words : word array }
  | Share_down of {
      cand : int;
      level : int;  (** sender's level *)
      node : int;  (** receiver's node on level - 1 *)
      inst : int;  (** the sender-level instance whose value is carried *)
      off : int;
      words : word array;
    }
  | Leaf_val of { cand : int; leaf : int; inst : int; off : int; words : word array }
  | Open_val of { cand : int; leaf : int; off : int; words : word array }
  | Vote of { level : int; node : int; ba : int; vote : bool }
      (** one agreement instance's vote inside a node election *)
  | Votes of { level : int; node : int; packed : Bytes.t }
      (** all of a member's election votes for the round, bit-packed *)

(** Exact binary codec for payloads (tag byte, varint ids, fixed 32-bit
    words).  [payload_bits] charges the meter with the true encoded size:
    [header_bits + 8 × encoded_length]. *)

val encode_payload : payload -> Bytes.t

(** [decode_payload data] — typed rejection of malformed input: unknown
    tags, truncation and trailing bytes come back as
    [Error (_ : Ks_stdx.Wire.invalid)], never as an exception. *)
val decode_payload : Bytes.t -> (payload, Ks_stdx.Wire.invalid) result

(** [encoded_length p] — bytes [encode_payload] produces, computed
    without allocating. *)
val encoded_length : payload -> int

val payload_bits : Params.t -> payload -> int

(** The shared share-instance tree. *)
module Structure : sig
  type t

  (** [build tree] enumerates instances for every level. *)
  val build : Ks_topology.Tree.t -> t

  (** [count s ~level] — instances at a level (level 1: k1). *)
  val count : t -> level:int -> int

  (** [pos s ~level ~inst] — the member position holding the instance. *)
  val pos : t -> level:int -> inst:int -> int

  (** [parent s ~level ~inst] — parent instance id on [level - 1]
      (raises for level 1). *)
  val parent : t -> level:int -> inst:int -> int

  (** [children s ~level ~inst] — child instance ids on [level + 1], in
      uplink order. *)
  val children : t -> level:int -> inst:int -> int array

  (** [at_position s ~level ~pos] — instances held at a position. *)
  val at_position : t -> level:int -> pos:int -> int array
end

type t

(** [create ~params ~tree ~seed ~behavior ~strategy] — builds the network
    (wrapping [strategy] so that corrupt tree-protocol traffic generated
    under [behavior] reaches the wire) and the shared structure.  The
    candidate set is one array per processor.

    [?retries] (default 0) bounds graceful degradation: each robust
    decode that fails may trigger up to that many re-request rounds — the
    same shares are resent, so losses from a benign-fault plan
    (docs/FAULTS.md) get fresh delivery draws — before the failure is
    accepted and counted.  With [retries = 0] the protocol behaves
    bit-identically to the pre-degradation code (failures are merely
    counted where they were silently dropped).

    [?quarantine] (default true) arms the per-processor quarantine list:
    a sender caught provably misbehaving — share word outside Z_p, wrong
    public length, or equivocation witnessed on a private channel — is
    recorded as a [Quarantine] monitor event and ignored by the accusing
    processor from then on.  Honest and behavior-policy traffic never
    produces evidence, so the default leaves unattacked runs
    byte-identical; disable it to measure undefended breaking points
    (table T17). *)
val create :
  ?retries:int ->
  ?quarantine:bool ->
  params:Params.t ->
  tree:Ks_topology.Tree.t ->
  seed:int64 ->
  behavior:behavior ->
  strategy:payload Ks_sim.Types.strategy ->
  ?budget:int ->
  unit ->
  t

val net : t -> payload Ks_sim.Net.t

(** Degradation counters: robust decodes that still failed after the
    retry budget, and re-request rounds actually taken.  Both stay 0 in
    an unfaulted run with [retries = 0]. *)
val decode_failures : t -> int

val retries_used : t -> int

(** Quarantine accusations recorded so far (an (accuser, offender) pair
    counts once).  Stays 0 in unattacked runs. *)
val quarantine_events : t -> int

(** [is_quarantined t ~accuser ~offender] — has [accuser] recorded proof
    of misbehaviour by [offender]?  Always false with quarantine
    disabled.  Vote handlers use this to drop quarantined senders'
    ballots too. *)
val is_quarantined : t -> accuser:int -> offender:int -> bool

val tree : t -> Ks_topology.Tree.t
val structure : t -> Structure.t
val params : t -> Params.t

(** [exchange t msgs] — one synchronous round: good processors' [msgs]
    plus whatever the behavior policy queued for corrupted processors. *)
val exchange :
  t -> payload Ks_sim.Types.envelope list -> payload Ks_sim.Types.envelope list array

(** [queue_adversarial t msgs] — stage messages to be sent by corrupted
    processors at the next [exchange] (used by the behavior policy and by
    bespoke attacks). *)
val queue_adversarial : t -> payload Ks_sim.Types.envelope list -> unit

(** [deal_all t ~arrays] — every processor [i] secret-shares [arrays.(i)]
    with its level-1 node (step 1a of Algorithm 2).  One round.  After
    this, candidate [i]'s 1-shares are live at level 1. *)
val deal_all : t -> arrays:word array array -> unit

(** [reshare_up t ~cands] — [sendSecretUp] for each candidate: every
    holder splits its share among its uplink neighbours and erases it
    (step 1b / 2c).  One round.  Candidates must all be live at the same
    level; shares end up one level higher.  [drop] lists candidates whose
    shares are erased without being passed up (election losers). *)
val reshare_up : t -> cands:int list -> drop:int list -> unit

(** Current share level of a candidate ([None] once dropped). *)
val level_of : t -> cand:int -> int option

(** [open_ranges_view t ~level ~ranges] — [sendDown] + level-1
    reconstruction + [sendOpen] for the listed [(cand, off, len)] word
    ranges, all in parallel; [level] must be >= 2 and each candidate
    listed once.  Takes [level + 1] rounds: [level - 1] [sendDown] rounds,
    one leaf exchange and one [sendOpen], plus up to [retries] re-request
    rounds for each of the [level] decoding hops.  Returns a view function:
    [view ~cand ~member] is what member position [member] of the
    candidate's level-[level] election node learned of the range
    (re-indexed from 0), [None] when too few honest pieces survived.
    Opened words are {e not} erased from the live shares (the protocol
    never reopens them). *)
val open_ranges_view :
  t ->
  level:int ->
  ranges:(int * int * int) list ->
  (cand:int -> member:int -> word array option)

(** True share value of an instance as currently held (test/diagnostic
    access — the adversary's oracle in hiding tests). *)
val held_value : t -> cand:int -> inst:int -> word array option
