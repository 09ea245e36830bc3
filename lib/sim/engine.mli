(** Round-driven runner for protocols written as per-processor state
    machines (Algorithm 5, Algorithm 3 and the baselines all fit this
    mould; the tree protocol of Algorithm 2 instead orchestrates
    [Net.exchange] directly through [Ks_core.Comm]). *)

type ('state, 'msg) protocol = {
  init : Types.proc -> 'state;
      (** initial state; called for every processor *)
  step :
    round:int ->
    me:Types.proc ->
    'state ->
    inbox:'msg Types.envelope list ->
    'state * 'msg Types.envelope list;
      (** one round of a {e good} processor: consume the previous round's
          inbox, emit this round's messages.  Corrupted processors are
          never stepped — the adversary speaks for them. *)
}

(** [run net protocol ~rounds] plays [rounds] rounds and returns the final
    state array.  States of processors corrupted at round [r] are frozen
    as of round [r] (exactly what the adversary captured).  Monitoring is
    whatever hub [net] was created with (see [Net.create]). *)
val run : 'msg Net.t -> ('state, 'msg) protocol -> rounds:int -> 'state array
