(** Pluggable run-time invariant monitors.

    A monitor consumes the event stream of a monitored run (see
    {!Event.t}) and emits structured {!violation}s the moment an
    invariant breaks — during execution, not just in the end-of-run
    summary.  Monitors are passive: they never touch the simulation's
    PRNG streams or message flow, so enabling them cannot change a
    run's outcome.

    Built-ins cover the paper's Theorem 1 guarantees: agreement,
    validity, the Õ(√n) per-processor bit budget, polylog round counts,
    and corruption-budget accounting. *)

type violation = {
  invariant : string;  (** which monitor fired *)
  net : int;  (** network id (see {!Event.t}); 0 when global *)
  proc : int option;  (** offending processor, when one is implicated *)
  round : int;  (** round at violation time; -1 when roundless *)
  observed : float;
  bound : float;
  detail : string;  (** human-readable one-liner *)
}

type t

(** [make ~name ?on_event ?at_finish ()] — a monitor from an event
    callback; call [emit] for each violation found.  [at_finish] runs
    when the hub is finished, for end-of-run invariants. *)
val make :
  name:string ->
  ?on_event:(emit:(violation -> unit) -> Event.t -> unit) ->
  ?at_finish:(emit:(violation -> unit) -> unit) ->
  unit ->
  t

val name : t -> string

(** [feed t ~emit ev] — drive one event through the monitor (the hub
    calls this; exposed for tests). *)
val feed : t -> emit:(violation -> unit) -> Event.t -> unit

(** [finish t ~emit] — run the end-of-run check. *)
val finish : t -> emit:(violation -> unit) -> unit

(** {1 Built-ins} *)

(** [corruption_budget ()] fires when a [Corrupt] event reports more
    total corruptions than the originating network's own budget (a
    regression in [Ks_sim.Net]'s enforcement).  [?limit] substitutes a
    stricter budget — the way tests deliberately trip the monitor. *)
val corruption_budget : ?limit:int -> unit -> t

(** [default_bit_bound ?c ~n ()] = [c · √n · log₂³ n]. *)
val default_bit_bound : ?c:float -> n:int -> unit -> float

(** [bit_budget ?labels ?bound ()] — flags any processor whose metered
    sent bits on a watched network exceed [bound ~n] (default
    {!default_bit_bound}).  [labels] restricts to networks whose
    [Run_start] label matches (the Õ(√n) theorem is about the King–Saia
    phases, not the O(n²) baselines); empty/omitted watches every
    network.  Adversarial traffic is never counted, and each processor
    is flagged at most once per network, at the message that crosses the
    bound ([round] and [observed] are that message's round and the
    running total it brings).  [bound ~n] is evaluated once per net, at
    its [Run_start]. *)
val bit_budget : ?labels:string list -> ?bound:(n:int -> float) -> unit -> t

(** [default_round_bound ?c ~n ()] = [c · log₂² n]. *)
val default_round_bound : ?c:float -> n:int -> unit -> float

(** [round_bound ?labels ?bound ()] — fires once per watched network,
    when it starts a round past [bound ~n]. *)
val round_bound : ?labels:string list -> ?bound:(n:int -> float) -> unit -> t

(** [agreement ()] — all [Decide] events on one network must carry one
    value; re-decisions must not change a processor's value. *)
val agreement : unit -> t

(** [validity ~inputs] — when [inputs] (one per processor, as ints) are
    unanimous, every decision must equal that input.  Inert otherwise. *)
val validity : inputs:int array -> t

(** [decided_everywhere ~n] — end-of-run check that every never-corrupted
    processor in [0, n) decided. *)
val decided_everywhere : n:int -> t
