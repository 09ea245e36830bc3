(* The adversary names the benchmark harness (perfbench/) was written
   against; Ks_attacks is the catalog. *)
include Ks_attacks

let vote_flipper = vote_strategy
