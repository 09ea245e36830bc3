(** The synchronous network with an adaptive rushing adversary.

    One [exchange] call is one communication round of the model:

    + the protocol hands over the messages its {e good} processors wish to
      send (anything claiming a corrupted source is discarded — the
      adversary speaks for those through its strategy);
    + the adversary, seeing only traffic addressed to processors it
      already controls, may adaptively corrupt more processors (budget
      permitting) — messages just produced by a freshly corrupted
      processor are reclaimed by the adversary (it got there before
      delivery);
    + the adversary then ("rushing") composes the corrupted processors'
      outgoing messages, with no bound on their number (flooding);
    + everything is delivered simultaneously; good processors' sends are
      charged to the meter.

    The network never reorders good processors' messages and never
    forges a good source address.  It {e can} drop or duplicate messages
    — but only under an explicit benign-fault plan ([?faults], or the
    ambient [Ks_faults.Plan]); with no plan the channels are perfectly
    reliable.  Benign faults sit {e below} the adversary: crash/recover
    churn and silence windows suppress sends before the adversary sees
    the round's traffic, in-flight omission/duplication applies to
    adversarial messages too, and none of it consumes the corruption
    budget.  See docs/FAULTS.md. *)

type 'msg t

(** [create ~seed ~n ~budget ~msg_bits ~strategy] — a fresh network of
    [n] processors; the adversary may corrupt at most [budget] of them in
    total, and [msg_bits] prices each payload for the meter.

    Monitoring: the network reports every round, send, corruption and
    decision to [?hub] — defaulting to the {e ambient} hub
    ([Ks_monitor.Hub.ambient ()]), so wrapping a run in
    [Ks_monitor.Hub.with_ambient] monitors every network it creates.
    This is the only place a hub attaches: a net's hub is fixed for its
    lifetime, and the hub sees the net's [Run_start] before any of its
    corruptions.
    [?label] names the protocol phase in the event stream ("tree",
    "a2e", "rabin", ...).  With no hub in scope the instrumentation is
    inert; it never touches the PRNG streams either way, so monitored
    and unmonitored runs are bit-identical.

    Faults: [?faults] installs a benign-fault plan for this net,
    defaulting to the ambient plan ([Ks_faults.Plan.ambient ()]).  A
    trivial or absent plan builds no injector — no extra RNG draws, no
    extra events — so unfaulted runs are bit-identical to the
    pre-fault-layer behaviour.  The injector draws from its own stream
    seeded by [plan.seed] and the net label, never from the engine,
    adversary or processor streams. *)
val create :
  ?hub:Ks_monitor.Hub.t ->
  ?faults:Ks_faults.Plan.t ->
  ?label:string ->
  seed:int64 ->
  n:int ->
  budget:int ->
  msg_bits:('msg -> int) ->
  strategy:'msg Types.strategy ->
  unit ->
  'msg t

val n : 'msg t -> int
val round : 'msg t -> int
val meter : 'msg t -> Meter.t
val is_corrupt : 'msg t -> Types.proc -> bool
val corrupt_count : 'msg t -> int
val budget : 'msg t -> int

(** Good (never corrupted) processors, ascending. *)
val good_procs : 'msg t -> Types.proc list

(** The engine RNG — protocols draw their private coins from per-processor
    streams split off this one, see [proc_rng]. *)
val rng : 'msg t -> Ks_stdx.Prng.t

(** [proc_rng t p] — processor [p]'s private coin stream (deterministic in
    the seed, independent across processors). *)
val proc_rng : 'msg t -> Types.proc -> Ks_stdx.Prng.t

(** [exchange t outgoing] executes one round and returns the inbox of
    every processor (index = destination).  Within an inbox, messages
    from good senders come first in sender order, then the adversary's,
    reflecting its control over intra-round ordering being irrelevant to
    our aggregate-style protocols. *)
val exchange : 'msg t -> 'msg Types.envelope list -> 'msg Types.envelope list array

(** [corrupt_now t procs] lets a harness force corruptions outside the
    strategy (used by failure-injection tests); still bounded by the
    budget and reported through [on_corrupt]. *)
val corrupt_now : 'msg t -> Types.proc list -> unit

(** {1 Monitoring} *)

(** [decide t p v] — record good processor [p]'s final decision in the
    event stream (protocols with an everywhere-agreement contract call
    this once per good processor). *)
val decide : 'msg t -> Types.proc -> int -> unit

(** [quarantine t ~accuser ~offender ~evidence ~info] — record that
    [accuser] holds proof of misbehaviour by [offender] and will ignore
    it from now on.  [evidence] is one of ["out_of_field"],
    ["wrong_length"], ["equivocation"]; [info] carries the offending
    word, length or instance (see docs/ATTACKS.md). *)
val quarantine :
  'msg t -> accuser:Types.proc -> offender:Types.proc -> evidence:string -> info:int -> unit

(** [emit_meter t] — emit a [Meter_proc] snapshot for every processor
    plus a [Run_end]; call at the end of a protocol run.  Re-emission is
    fine: replay readers take the last snapshot per processor. *)
val emit_meter : 'msg t -> unit
