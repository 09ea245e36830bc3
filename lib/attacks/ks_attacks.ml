(* The adversary catalog: every seeded, replayable strategy the simulator
   runs against the King-Saia stack and its baselines, built against the
   adversary interface (Ks_sim.Adversary.make).  Every strategy draws only
   from the view's adversary RNG, so a run is a pure function of its seed.

   An entry packages the three per-network strategies the Everywhere stack
   wants — the tree phase (Comm payloads), the amplification phase
   (Ae_to_e messages) and the plain vote nets of Algorithm 5 and the Rabin
   baseline — plus the Comm behavior policy applied to whatever the
   corrupted processors would have sent anyway.  The runners at the bottom
   hand the tree strategy the tree the protocol itself builds.
   docs/ATTACKS.md is the narrative catalog; T3 and T17 measure it. *)

module Prng = Ks_stdx.Prng
module Zp = Ks_field.Zp
module Params = Ks_core.Params
module Comm = Ks_core.Comm
module A2e = Ks_core.Ae_to_e
module Tree = Ks_topology.Tree
module Adversary = Ks_sim.Adversary
open Ks_sim.Types

type schedule = Static | Creeping

type t = {
  name : string;
  doc : string;
  fraction : float;
  schedule : schedule;
  attack : bool;
  behavior : Comm.behavior;
  tree : params:Params.t -> budget:int -> tree:Tree.t -> Comm.payload strategy;
  a2e :
    params:Params.t ->
    budget:int ->
    carried:int list ->
    coin:(iteration:int -> int -> int option) ->
    A2e.msg strategy;
  vote : params:Params.t -> budget:int -> bool strategy;
}

(* Not clamped to the model's (1/3 - eps) allowance: T17 deliberately walks
   past 1/3 to find the breaking points.  The engine itself caps at n - 1. *)
let budget ~params ~fraction =
  let n = params.Params.n in
  Stdlib.min (n - 1) (int_of_float (fraction *. float_of_int n))

let budget_of ?fraction t ~params =
  budget ~params ~fraction:(Option.value fraction ~default:t.fraction)

(* The public length of every candidate array, craftable from params and
   tree alone — what a forged Deal must match to pass the length gate. *)
let array_len ~params ~tree =
  (Ks_core.Ae_ba.Layout.make params tree).Ks_core.Ae_ba.Layout.total

(* [want] uniformly random processors before round 0 (fewer if the
   network's own budget is smaller). *)
let static want rng ~n ~budget =
  Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget want)

(* The same count spent gradually: one adaptive pick per round. *)
let creep want =
  let taken = ref 0 in
  fun view ->
    if !taken >= want || view.view_budget_left <= 0 then []
    else begin
      let rec pick tries =
        if tries = 0 then []
        else begin
          let p = Prng.int view.view_rng view.view_n in
          if view.view_is_corrupt p then pick (tries - 1)
          else begin
            incr taken;
            [ p ]
          end
        end
      in
      pick 16
    end

(* The schedule alone: silent corrupted processors, any message type. *)
let silent name schedule ~budget =
  match schedule with
  | Static -> Adversary.make ~name ~initial_corruptions:(static budget) ()
  | Creeping -> Adversary.make ~name ~adapt:(creep budget) ()

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* Corrupt up to [per_node] members of each level-1 node, nodes visited in
   a seeded random order, until the budget runs out.  Because processors
   sit in several leaf nodes, the realised per-node corruption can exceed
   [per_node] by the overlap; the targeted tests pin exact sets instead. *)
let per_leaf_targets rng tree ~per_node ~budget =
  let leaves = Tree.node_count tree ~level:1 in
  let order = Prng.permutation rng leaves in
  let chosen = ref [] and left = ref budget in
  Array.iter
    (fun leaf ->
      if !left > 0 then begin
        let members = Tree.members tree ~level:1 ~node:leaf in
        let taken = ref 0 in
        Array.iter
          (fun p ->
            if !left > 0 && !taken < per_node && not (List.mem p !chosen) then begin
              chosen := p :: !chosen;
              incr taken;
              decr left
            end)
          members
      end)
    order;
  !chosen

let seize_leaves name ~per_node ~budget:want ~tree =
  Adversary.make ~name
    ~initial_corruptions:(fun rng ~n:_ ~budget ->
      per_leaf_targets rng tree ~per_node ~budget:(Stdlib.min budget want))
    ()

(* Berlekamp–Welch correction radius of one leaf decode. *)
let leaf_radius ~params ~tree =
  let k1 = Tree.node_size tree ~level:1 in
  let t1 = Params.share_threshold params ~holders:k1 in
  Stdlib.max 0 ((k1 - t1 - 1) / 2)

(* Shared inert pieces: the schedule with no extra messages, for the
   phases an attack does not target. *)
let passive_a2e name ~params:_ ~budget ~carried ~coin:_ =
  Ks_core.Everywhere.carry_corruptions (silent name Static ~budget) ~carried

let passive_vote name ~params:_ ~budget = silent name Static ~budget

(* Minority echo on plain vote nets, the classic coin-biasing move: echo
   the minority of the votes the adversary can see, to everyone —
   non-neighbours are discarded by the receivers, which also exercises
   that defence. *)
let minority_echo name schedule ~params:_ ~budget =
  let act view =
    let ones =
      List.fold_left (fun acc e -> if e.payload then acc + 1 else acc) 0
        view.view_visible
    in
    let total = List.length view.view_visible in
    let minority =
      if total = 0 then Prng.bool view.view_rng else 2 * ones < total
    in
    List.concat_map
      (fun p ->
        List.init view.view_n (fun dst -> { src = p; dst; payload = minority }))
      view.view_corrupt
  in
  { (silent name schedule ~budget) with act }

(* Per-recipient split vote: tell every even destination [true] and every
   odd one [false] — maximal disagreement pressure on threshold rules. *)
let split_vote name ~params:_ ~budget =
  let act view =
    List.concat_map
      (fun p ->
        List.init view.view_n (fun dst ->
            { src = p; dst; payload = dst land 1 = 0 }))
      view.view_corrupt
  in
  { (silent name Static ~budget) with act }

(* --- scenarios: a schedule and a behavior policy ------------------------ *)

(* Amplification-phase flood: mis-reply to every request for the round's
   label and concentrate request overloads on random responders. *)
let flood_act ~params ~coin view =
  let n = params.Params.n in
  let poison = 2 in
  let iteration = view.view_round / 2 in
  if view.view_round mod 2 = 1 then begin
    (* Mis-reply to every request a corrupted processor received; the
       adversary legitimately knows this iteration's label through its
       corrupted knowledgeable processors. *)
    let k = List.find_map (fun p -> coin ~iteration p) view.view_corrupt in
    List.filter_map
      (fun e ->
        match (e.payload, k) with
        | A2e.Request label, Some k when label = k ->
          Some
            { src = e.dst; dst = e.src; payload = A2e.Reply { label; value = poison } }
        | _ -> None)
      view.view_visible
  end
  else begin
    (* Request phase: the label is not drawn yet (that is the point of
       Algorithm 3), so each corrupted processor concentrates its full
       per-sender allowance (n - 1 requests, any more is evidently
       corrupt) on one victim with a guessed label — if the guess hits
       the drawn label, the victim is overloaded out of serving. *)
    let guess = Prng.int view.view_rng params.Params.a2e_labels in
    List.concat_map
      (fun p ->
        let victim = Prng.int view.view_rng n in
        List.init (n - 1) (fun _ ->
            { src = p; dst = victim; payload = A2e.Request guess }))
      view.view_corrupt
  end

let scenario name ~fraction ~schedule behavior doc =
  {
    name; doc; fraction; schedule; attack = false; behavior;
    tree = (fun ~params:_ ~budget ~tree:_ -> silent name schedule ~budget);
    a2e =
      (fun ~params:_ ~budget ~carried ~coin:_ ->
        Ks_core.Everywhere.carry_corruptions (silent name schedule ~budget) ~carried);
    vote = minority_echo name schedule;
  }

let honest =
  scenario "honest" ~fraction:0. ~schedule:Static Comm.Follow
    "no corruption: the fault-free baseline"

let crash =
  scenario "crash" ~fraction:0.25 ~schedule:Static Comm.Silent
    "a random quarter of the processors, corrupted before round 0 and silent"

let byzantine_static =
  scenario "byz-static" ~fraction:0.25 ~schedule:Static Comm.Garbage
    "a random quarter, corrupted before round 0, sending random shares and votes"

let byzantine_adaptive =
  scenario "byz-adaptive" ~fraction:0.25 ~schedule:Creeping Comm.Garbage
    "the same count corrupted gradually, one adaptive pick per round"

(* Corrupt whole level-1 nodes of the protocol's tree until the budget runs
   out — the canonical attack on share custody. *)
let eclipse =
  {
    (scenario "eclipse" ~fraction:0.25 ~schedule:Static Comm.Flip
       "seize whole level-1 nodes of the protocol's tree, flipping every \
        share they hold")
    with
    tree = (fun ~params:_ -> seize_leaves "eclipse" ~per_node:max_int);
  }

let flood =
  {
    (scenario "flood" ~fraction:0.25 ~schedule:Static Comm.Garbage
       "static garbage, plus amplification-phase request floods and poisoned \
        replies")
    with
    a2e =
      (fun ~params ~budget ~carried ~coin ->
        { (passive_a2e "flood" ~params ~budget ~carried ~coin) with
          act = flood_act ~params ~coin });
  }

(* --- equivocate -------------------------------------------------------- *)

(* Rushing equivocation: the behavior policy already tells a different
   in-field lie per recipient parity class; on top of that, each corrupted
   dealer sends a second, conflicting copy of its Deal down the same
   private channels in the deal round (round 0).  Two conflicting values
   for the same slot from the same sender is exactly the provable evidence
   the quarantine layer wants ("equivocation"). *)
let equivocate_tree ~params ~budget ~tree =
  let len = array_len ~params ~tree in
  Adversary.make ~name:"equivocate" ~initial_corruptions:(static budget)
    ~act:(fun view ->
      if view.view_round <> 0 then []
      else
        List.concat_map
          (fun p ->
            let members = Tree.members tree ~level:1 ~node:p in
            Array.to_list
              (Array.mapi
                 (fun h dst ->
                   let words =
                     Array.init len (fun _ -> Zp.random view.view_rng)
                   in
                   { src = p; dst; payload = Comm.Deal { cand = p; inst = h; words } })
                 members))
          view.view_corrupt)
    ()

(* Conflicting replies per requester parity: requesters with even ids are
   told 0, odd ones 1 — within one response round. *)
let equivocate_a2e ~params:_ ~budget ~carried ~coin:_ =
  let base =
    Adversary.make ~name:"equivocate" ~initial_corruptions:(static budget)
      ~act:(fun view ->
        List.filter_map
          (fun e ->
            match e.payload with
            | A2e.Request label ->
              Some
                { src = e.dst; dst = e.src;
                  payload = A2e.Reply { label; value = e.src land 1 } }
            | A2e.Reply _ -> None)
          view.view_visible)
      ()
  in
  Ks_core.Everywhere.carry_corruptions base ~carried

let equivocate =
  {
    name = "equivocate";
    doc =
      "rushing equivocation: conflicting in-field values to different \
       recipients within a round, plus duplicate conflicting deals on the \
       same channel (provable evidence)";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Equivocate;
    tree = equivocate_tree;
    a2e = equivocate_a2e;
    vote = split_vote "equivocate";
  }

(* --- bad-share flooding ------------------------------------------------ *)

(* Shares off the dealt polynomial, targeted at the Berlekamp–Welch
   radius.  [Flip] adds one to every word, so the liars agree on the
   consistent wrong polynomial p(x) + 1 — the worst consistent lie.
   Inside the radius the robust decoder corrects all of it; just outside,
   decodes fail detectably (graceful degradation), never silently. *)
let bad_share_tree ~just_outside ~params ~budget ~tree =
  let radius = leaf_radius ~params ~tree in
  seize_leaves
    (if just_outside then "bad-share-outside" else "bad-share-inside")
    ~per_node:(if just_outside then radius + 1 else radius)
    ~budget ~tree

let bad_share_inside =
  {
    name = "bad-share-inside";
    doc =
      "off-polynomial shares from at most the Berlekamp-Welch radius of \
       holders per leaf: robust decoding must correct every one";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Flip;
    tree = bad_share_tree ~just_outside:false;
    a2e = passive_a2e "bad-share-inside";
    vote = passive_vote "bad-share-inside";
  }

let bad_share_outside =
  {
    name = "bad-share-outside";
    doc =
      "off-polynomial shares from one holder past the decoding radius per \
       leaf: decodes fail detectably instead of flipping";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Flip;
    tree = bad_share_tree ~just_outside:true;
    a2e = passive_a2e "bad-share-outside";
    vote = minority_echo "bad-share-outside" Static;
  }

(* --- hunt-committee ---------------------------------------------------- *)

(* Adaptive sampler/committee corruption: half the budget up front, the
   rest spent hunting the members of the top election level — the node
   whose winners feed the root agreement — preferring processors the
   rushing view just saw talking (their queued messages are reclaimed the
   moment they fall). *)
let hunt_tree ~params:_ ~budget:want ~tree =
  let top = Stdlib.max 2 (Tree.levels tree - 1) in
  let top_members =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun node -> Array.to_list (Tree.members tree ~level:top ~node))
         (List.init (Tree.node_count tree ~level:top) (fun j -> j)))
  in
  Adversary.make ~name:"hunt-committee"
    ~initial_corruptions:(fun rng ~n ~budget ->
      Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget want / 2))
    ~adapt:(fun view ->
      if view.view_budget_left <= 0 then []
      else begin
        let fresh =
          List.filter (fun p -> not (view.view_is_corrupt p)) top_members
        in
        let seen =
          List.sort_uniq Int.compare
            (List.filter_map
               (fun e -> if List.mem e.src fresh then Some e.src else None)
               view.view_visible)
        in
        take 2 (match seen with [] -> fresh | s -> s)
      end)
    ()

(* Same hunt in the amplification phase: corrupted processors probe with
   requests; any knowledgeable processor whose reply becomes visible is
   corrupted next round, eating the reply on its way out. *)
let hunt_a2e ~params ~budget ~carried ~coin:_ =
  let labels = params.Params.a2e_labels in
  let base =
    Adversary.make ~name:"hunt-committee" ~initial_corruptions:(static budget)
      ~adapt:(fun view ->
        if view.view_budget_left <= 0 then []
        else
          take 2
            (List.sort_uniq Int.compare
               (List.filter_map
                  (fun e ->
                    match e.payload with
                    | A2e.Reply _ when not (view.view_is_corrupt e.src) ->
                      Some e.src
                    | _ -> None)
                  view.view_visible)))
      ~act:(fun view ->
        if view.view_round mod 2 <> 0 then []
        else
          List.map
            (fun p ->
              let dst = Prng.int view.view_rng view.view_n in
              { src = p; dst;
                payload = A2e.Request (Prng.int view.view_rng labels) })
            view.view_corrupt)
      ()
  in
  Ks_core.Everywhere.carry_corruptions base ~carried

let hunt_committee =
  {
    name = "hunt-committee";
    doc =
      "adaptive hunt: half the budget up front, the rest corrupting top \
       election-node members and observed responders via the rushing view";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Garbage;
    tree = hunt_tree;
    a2e = hunt_a2e;
    vote = passive_vote "hunt-committee";
  }

(* --- coin-split -------------------------------------------------------- *)

(* Coin-flip biasing against the Algorithm 5 rule: corrupted node members
   answer every election/agreement instance they can see with a vote that
   depends only on the recipient's parity, keeping the two halves of every
   node maximally split so the (2/3 + eps/2) threshold never clears. *)
let coin_split_tree ~params:_ ~budget ~tree =
  Adversary.make ~name:"coin-split" ~initial_corruptions:(static budget)
    ~act:(fun view ->
      let seen = Hashtbl.create 8 in
      List.concat_map
        (fun e ->
          match e.payload with
          | Comm.Vote { level; node; ba; vote = _ }
            when not (Hashtbl.mem seen (level, node, ba)) ->
            Hashtbl.add seen (level, node, ba) ();
            let members = Tree.members tree ~level ~node in
            List.concat_map
              (fun p ->
                match Tree.position_of tree ~level ~node p with
                | None -> []
                | Some _ ->
                  Array.to_list
                    (Array.map
                       (fun dst ->
                         { src = p; dst;
                           payload =
                             Comm.Vote
                               { level; node; ba; vote = dst land 1 = 0 } })
                       members))
              view.view_corrupt
          | Comm.Votes { level; node; packed }
            when not (Hashtbl.mem seen (level, node, -1)) ->
            Hashtbl.add seen (level, node, -1) ();
            let members = Tree.members tree ~level ~node in
            let flipped =
              Bytes.init (Bytes.length packed) (fun i ->
                  Char.chr (lnot (Char.code (Bytes.get packed i)) land 0xFF))
            in
            List.concat_map
              (fun p ->
                match Tree.position_of tree ~level ~node p with
                | None -> []
                | Some _ ->
                  Array.to_list
                    (Array.map
                       (fun dst ->
                         let payload =
                           Comm.Votes
                             { level; node;
                               packed =
                                 (if dst land 1 = 0 then Bytes.copy packed
                                  else flipped) }
                         in
                         { src = p; dst; payload })
                       members))
              view.view_corrupt
          | _ -> [])
        view.view_visible)
    ()

let coin_split =
  {
    name = "coin-split";
    doc =
      "coin biasing: per-recipient-parity conflicting votes in every \
       election and agreement instance the rushing view exposes";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Follow;
    tree = coin_split_tree;
    a2e = passive_a2e "coin-split";
    vote = split_vote "coin-split";
  }

(* --- wire-junk --------------------------------------------------------- *)

(* Malformed-wire injection: syntactically well-formed envelopes whose
   contents violate the public contracts — words outside Z_p, wrong vector
   lengths, out-of-range identifiers — thrown at every decode path.  The
   hardened handlers must reject each one with a typed refusal (quarantine
   evidence where the sender slot is provable, a silent drop where it is
   not), never an exception.  Byte-level garbage is covered by the wire
   fuzzers in test_attacks, which drive the decoders directly. *)
let wire_junk_tree ~params ~budget ~tree =
  let len = array_len ~params ~tree in
  Adversary.make ~name:"wire-junk" ~initial_corruptions:(static budget)
    ~act:(fun view ->
      let deals =
        if view.view_round <> 0 then []
        else
          List.concat_map
            (fun p ->
              let members = Tree.members tree ~level:1 ~node:p in
              Array.to_list
                (Array.mapi
                   (fun h dst ->
                     let payload =
                       if h land 1 = 0 then
                         (* A word past the modulus: out_of_field evidence. *)
                         Comm.Deal
                           { cand = p; inst = h;
                             words =
                               Array.init len (fun i ->
                                   if i = 0 then Zp.p + 1 + Prng.int view.view_rng 1000
                                   else Zp.random view.view_rng) }
                       else
                         (* One word too many: wrong_length evidence. *)
                         Comm.Deal
                           { cand = p; inst = h;
                             words =
                               Array.init (len + 1) (fun _ ->
                                   Zp.random view.view_rng) }
                     in
                     { src = p; dst; payload })
                   members))
            view.view_corrupt
      in
      (* A steady drizzle of decodable-but-illegitimate payloads at random
         processors: absurd identifiers, negative words, foreign slots.
         Every handler's route guards must drop them on the floor. *)
      let spray =
        List.map
          (fun p ->
            let dst = Prng.int view.view_rng view.view_n in
            let payload =
              match Prng.int view.view_rng 3 with
              | 0 ->
                Comm.Share_up
                  { cand = 1 lsl 29; inst = Prng.int view.view_rng 4096;
                    words = [| -1; Zp.random view.view_rng |] }
              | 1 ->
                Comm.Share_down
                  { cand = Prng.int view.view_rng view.view_n;
                    level = 1 + Prng.int view.view_rng 30;
                    node = Prng.int view.view_rng 4096;
                    inst = Prng.int view.view_rng 4096;
                    off = Prng.int view.view_rng 64;
                    words = [| Zp.p + 7 |] }
              | _ ->
                Comm.Open_val
                  { cand = Prng.int view.view_rng view.view_n;
                    leaf = Prng.int view.view_rng 4096;
                    off = Prng.int view.view_rng 64;
                    words = [| Zp.random view.view_rng; -5 |] }
            in
            { src = p; dst; payload })
          view.view_corrupt
      in
      deals @ spray)
    ()

let wire_junk_a2e ~params:_ ~budget ~carried ~coin:_ =
  let base =
    Adversary.make ~name:"wire-junk" ~initial_corruptions:(static budget)
      ~act:(fun view ->
        List.map
          (fun p ->
            let dst = Prng.int view.view_rng view.view_n in
            let payload =
              if view.view_round mod 2 = 0 then
                A2e.Request (1 lsl 28)
              else
                A2e.Reply
                  { label = Prng.int view.view_rng (1 lsl 20); value = -42 }
            in
            { src = p; dst; payload })
          view.view_corrupt)
      ()
  in
  Ks_core.Everywhere.carry_corruptions base ~carried

let wire_junk =
  {
    name = "wire-junk";
    doc =
      "malformed injection: out-of-field words, wrong lengths and absurd \
       identifiers on every decode path; all must be rejected typed";
    fraction = 0.25; schedule = Static; attack = true;
    behavior = Comm.Garbage;
    tree = wire_junk_tree;
    a2e = wire_junk_a2e;
    vote = passive_vote "wire-junk";
  }

(* --- the catalog ---------------------------------------------------------- *)

let all =
  [
    honest; crash; byzantine_static; byzantine_adaptive; eclipse; flood;
    equivocate; bad_share_inside; bad_share_outside; hunt_committee; coin_split;
    wire_junk;
  ]

let find name = List.find_opt (fun a -> String.equal a.name name) all

(* The entry's strategies at its own fraction. *)
let tree_strategy t ~params ~tree = t.tree ~params ~budget:(budget_of t ~params) ~tree

let a2e_strategy t ~params ~coin ~carried =
  t.a2e ~params ~budget:(budget_of t ~params) ~carried ~coin

let vote_strategy t ~params = t.vote ~params ~budget:(budget_of t ~params)
let generic_strategy t ~budget = silent t.name t.schedule ~budget

(* --- runners: the strategy aimed at the tree the protocol builds --------- *)

let everywhere ?fraction ?retries ?quarantine ~params ~seed ~inputs t =
  let budget = budget_of ?fraction t ~params in
  let tree = Ks_core.Everywhere.tree ~params ~seed in
  Ks_core.Everywhere.run ?retries ?quarantine ~params ~seed ~inputs
    ~behavior:t.behavior
    ~tree_strategy:(t.tree ~params ~budget ~tree)
    ~a2e_strategy:(fun ~carried ~coin -> t.a2e ~params ~budget ~carried ~coin)
    ~budget ()

let ae ?fraction ?retries ?quarantine ~params ~seed ~inputs t =
  let budget = budget_of ?fraction t ~params in
  let tree = Ks_core.Ae_ba.tree ~params ~seed in
  Ks_core.Ae_ba.run ?retries ?quarantine ~params ~seed ~inputs ~behavior:t.behavior
    ~strategy:(t.tree ~params ~budget ~tree) ~budget ()

let rabin ?fraction ~params ~seed ~inputs t =
  let n = params.Params.n in
  let budget = budget_of ?fraction t ~params in
  Ks_baselines.Rabin.run ~seed ~n ~budget
    ~rounds:((2 * Ks_stdx.Intmath.ceil_log2 n) + 6)
    ~epsilon:params.Params.epsilon ~inputs ~strategy:(t.vote ~params ~budget)
