(** Everywhere Byzantine agreement — Algorithm 4 (§5), the paper's main
    result (Theorem 1).

    Composition: run the almost-everywhere tournament ({!Ae_ba}), then
    repeatedly amplify with {!Ae_to_e}, drawing each iteration's common
    random label from the almost-everywhere coin subsequence (§3.5) —
    each label is opened from the surviving arrays only when its
    iteration starts, so the adversary cannot target responders in
    advance.  Per-processor communication is dominated by the
    amplification phase's Õ(√n) bits.

    The corruption state carries across the phases: processors the
    adversary took during the tournament stay corrupted in the
    amplification network, and the overall budget is shared. *)

type result = {
  ae : Ae_ba.result;
  a2e : Ae_to_e.result;
  success : bool;
      (** every good processor decided the almost-everywhere majority *)
  safe : bool;  (** no good processor decided anything else *)
  degraded : bool;
      (** the tree phase detected robust-decode failures or spent
          re-request rounds (graceful degradation under benign faults —
          agreement may still hold; see docs/FAULTS.md) *)
  decode_failures : int;  (** decodes still failed after the retry budget *)
  retries_used : int;  (** re-request rounds actually taken *)
  agreed_value : int option;  (** the common decision when [success] *)
  ae_rounds : int;
  a2e_rounds : int;
  max_sent_bits_ae : int;  (** max bits sent by a good processor, AE phase *)
  max_sent_bits_a2e : int;
  max_sent_bits_total : int;
  total_sent_bits : int;  (** all good processors, both phases *)
}

(** [tree ~params ~seed] — the tree [run ~params ~seed] plays its
    tournament on (the {!Ae_ba.tree} of the tournament's seed): the public
    topology a tree-targeted [tree_strategy] must aim at. *)
val tree : params:Params.t -> seed:int64 -> Ks_topology.Tree.t

(** [run ~params ~seed ~inputs ~behavior ~tree_strategy ~a2e_strategy] —
    [a2e_strategy] receives the processors already corrupted during the
    tournament (include them in its initial corruptions — use
    {!carry_corruptions}) and the §3.5 coin view, through which a
    flooding adversary learns each iteration's label exactly when its
    corrupted knowledgeable processors do.  [?retries] (default 0) is
    the tree phase's per-decode re-request budget ({!Comm.create});
    [?quarantine] (default true) arms the tree phase's
    provable-misbehaviour quarantine list. *)
val run :
  ?retries:int ->
  ?quarantine:bool ->
  params:Params.t ->
  seed:int64 ->
  inputs:bool array ->
  behavior:Comm.behavior ->
  tree_strategy:Comm.payload Ks_sim.Types.strategy ->
  a2e_strategy:
    (carried:int list ->
     coin:(iteration:int -> int -> int option) ->
     Ae_to_e.msg Ks_sim.Types.strategy) ->
  ?budget:int ->
  unit ->
  result

(** [carry_corruptions base ~carried] — a strategy that first corrupts
    [carried], then defers to [base] (whose own initial corruptions are
    applied after, within the remaining budget). *)
val carry_corruptions :
  'msg Ks_sim.Types.strategy -> carried:int list -> 'msg Ks_sim.Types.strategy
