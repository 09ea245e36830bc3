(** The adversary names the benchmark harness (perfbench/) was written
    against, re-exported from {!Ks_attacks}, the catalog. *)

type t = Ks_attacks.t = {
  name : string;
  doc : string;
  fraction : float;
  schedule : Ks_attacks.schedule;
  attack : bool;
  behavior : Ks_core.Comm.behavior;
  tree :
    params:Ks_core.Params.t ->
    budget:int ->
    tree:Ks_topology.Tree.t ->
    Ks_core.Comm.payload Ks_sim.Types.strategy;
  a2e :
    params:Ks_core.Params.t ->
    budget:int ->
    carried:int list ->
    coin:(iteration:int -> int -> int option) ->
    Ks_core.Ae_to_e.msg Ks_sim.Types.strategy;
  vote : params:Ks_core.Params.t -> budget:int -> bool Ks_sim.Types.strategy;
}

val honest : t
val byzantine_static : t
val budget_of : ?fraction:float -> t -> params:Ks_core.Params.t -> int

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

val vote_flipper : t -> params:Ks_core.Params.t -> bool Ks_sim.Types.strategy
