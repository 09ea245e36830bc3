(** Construction kit for adversary strategies, plus protocol-agnostic
    canned adversaries.

    Strategies that must read corrupted processors' private state or craft
    protocol-specific lies are built with [make] at the protocol layer
    (see [Ks_attacks]); closures give them exactly the access the
    model grants. *)

(** [make ()] — all components default to inert: no initial corruptions,
    no adaptation, no messages.  Override the pieces you need. *)
val make :
  ?name:string ->
  ?initial_corruptions:(Ks_stdx.Prng.t -> n:int -> budget:int -> Types.proc list) ->
  ?adapt:('msg Types.view -> Types.proc list) ->
  ?act:('msg Types.view -> 'msg Types.envelope list) ->
  ?on_corrupt:(Types.proc -> unit) ->
  unit ->
  'msg Types.strategy

(** No corruptions at all — the honest-execution baseline. *)
val none : 'msg Types.strategy

(** Corrupts a uniformly random set of [budget] processors before round 0
    and keeps them silent (crash faults). *)
val crash_random : 'msg Types.strategy

(** Spends the budget gradually: corrupts [per_round] random processors
    each round (crash behaviour).  Exercises adaptivity even when the
    protocol layer supplies no smarter target selection. *)
val creeping_crash : per_round:int -> 'msg Types.strategy

(** [uniform_random_set rng ~n ~budget] — helper for [initial_corruptions]
    components: a uniform random subset of size [budget]. *)
val uniform_random_set : Ks_stdx.Prng.t -> n:int -> budget:int -> Types.proc list
