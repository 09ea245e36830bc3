module Prng = Ks_stdx.Prng
module Intmath = Ks_stdx.Intmath

let log_src = Logs.Src.create "ks.ae_ba" ~doc:"Algorithm 2 tournament"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Tree = Ks_topology.Tree
module Graph = Ks_topology.Graph
module Zp = Ks_field.Zp
open Ks_sim.Types

module Layout = struct
  type t = {
    levels : int;
    block_off : int array;
    r_max : int array;
    root_coin_off : int;
    a2e_coin_off : int;
    total : int;
  }

  let make (params : Params.t) tree =
    let levels = Tree.levels tree in
    if levels < 3 then invalid_arg "Ae_ba.Layout.make: tree needs at least 3 levels";
    let r_max =
      Array.init (levels + 1) (fun l ->
          if l < 2 || l >= levels then 0
          else if l = 2 then params.Params.q
          else params.Params.winners * params.Params.q)
    in
    let block_off = Array.make (levels + 1) 0 in
    let off = ref 0 in
    for l = 2 to levels - 1 do
      block_off.(l) <- !off;
      off := !off + 1 + r_max.(l)
    done;
    let root_coin_off = !off in
    let a2e_coin_off = !off + 1 in
    { levels; block_off; r_max; root_coin_off; a2e_coin_off; total = !off + 2 }
end

type election_stats = {
  level : int;
  node : int;
  candidates : int array;
  winners : int array;
  good_winner_fraction : float;
  member_agreement : float;
}

type result = {
  votes : bool array;
  agreement : float;
  majority : bool;
  valid : bool;
  elections : election_stats list;
  root_candidates : int array;
  quorum_shortfalls : int;
  comm : Comm.t;
  layout : Layout.t;
  coin_view : iteration:int -> int -> int option;
}

(* Bit-packing of a member's election votes (one bit per agreement
   instance). *)
let pack_votes bits =
  let n = Array.length bits in
  let packed = Bytes.make (Intmath.cdiv (Stdlib.max 1 n) 8) '\000' in
  Array.iteri
    (fun i b ->
      if b then begin
        let byte = Bytes.get_uint8 packed (i / 8) in
        Bytes.set_uint8 packed (i / 8) (byte lor (1 lsl (i mod 8)))
      end)
    bits;
  packed

let unpack_vote packed i =
  let byte_idx = i / 8 in
  if byte_idx >= Bytes.length packed then None
  else Some (Bytes.get_uint8 packed byte_idx land (1 lsl (i mod 8)) <> 0)

(* What a corrupted member puts on the wire in place of its packed votes
   (mirrors Comm's word-level behavior policy).  [Equivocate] is
   destination-dependent and handled per-recipient at the call sites via
   [equivocate_packed]; here it degrades to [Follow] so the helper stays
   total.  The other behaviors are destination-independent and evaluated
   once per member, so [Garbage]'s RNG draw count is unchanged. *)
let corrupt_packed behavior rng packed =
  match behavior with
  | Comm.Follow | Comm.Equivocate -> Some packed
  | Comm.Silent -> None
  | Comm.Garbage ->
    Some (Bytes.init (Bytes.length packed) (fun _ -> Char.chr (Prng.int rng 256)))
  | Comm.Flip ->
    Some (Bytes.init (Bytes.length packed) (fun i ->
        Char.chr (lnot (Char.code (Bytes.get packed i)) land 0xFF)))

(* Rushing equivocation on a ballot: even-numbered recipients get the
   honest ballot, odd-numbered ones get it with every vote inverted —
   conflicting ballots inside one round, no randomness consumed. *)
let equivocate_packed ~dst packed =
  if dst land 1 = 0 then packed
  else
    Bytes.init (Bytes.length packed) (fun i ->
        Char.chr (lnot (Char.code (Bytes.get packed i)) land 0xFF))

(* A node's ballot counts: [ones.(mp).(i)] and [totals.(mp).(i)] are the
   ones and the ballots counted by member position [mp] on instance [i]. *)
type tally = { ones : int array array; totals : int array array }

(* One round of batched vote exchange for the ballots of nodes
   [0 .. node_count - 1] at [level]: [members_of], [graph_of] and
   [votes_of] give each node's members, vote graph and votes per (member
   position, instance).  Returns the node-indexed tallies. *)
let vote_round comm ~behavior ~adv_rng ~level ~node_count ~members_of ~graph_of
    ~votes_of ~instances_of =
  let msgs = ref [] in
  for node = 0 to node_count - 1 do
    let members = members_of node in
    let graph = graph_of node in
    let votes = votes_of node in
    Array.iteri
      (fun mp p ->
        let packed = pack_votes votes.(mp) in
        let payload pk = Comm.Votes { level; node; packed = pk } in
        let send pk =
          Array.iter
            (fun np ->
              let e = { src = p; dst = members.(np); payload = payload pk } in
              if Ks_sim.Net.is_corrupt (Comm.net comm) p then
                Comm.queue_adversarial comm [ e ]
              else msgs := e :: !msgs)
            (Graph.neighbours graph mp)
        in
        if Ks_sim.Net.is_corrupt (Comm.net comm) p then begin
          match behavior with
          | Comm.Equivocate ->
            Array.iter
              (fun np ->
                let dst = members.(np) in
                Comm.queue_adversarial comm
                  [ { src = p; dst; payload = payload (equivocate_packed ~dst packed) } ])
              (Graph.neighbours graph mp)
          | _ -> (
            match corrupt_packed behavior adv_rng packed with
            | Some pk -> send pk
            | None -> ())
        end
        else send packed)
      members
  done;
  let inboxes = Comm.exchange comm !msgs in
  Array.init node_count (fun node ->
      let members = members_of node in
      let graph = graph_of node in
      let ni = instances_of node in
      let size = Array.length members in
      let tally =
        { ones = Array.init size (fun _ -> Array.make ni 0);
          totals = Array.init size (fun _ -> Array.make ni 0) }
      in
      Array.iteri
        (fun mp p ->
          let seen = Hashtbl.create 16 in
          List.iter
            (fun e ->
              match e.payload with
              | Comm.Votes { level = ml; node = mn; packed }
                when ml = level && mn = node && not (Hashtbl.mem seen e.src)
                     && not (Comm.is_quarantined comm ~accuser:p ~offender:e.src)
                -> begin
                  (* Count only graph neighbours, once each. *)
                  match Tree.position_of (Comm.tree comm) ~level ~node e.src with
                  | Some sp when Graph.adjacent graph mp sp ->
                    Hashtbl.add seen e.src ();
                    let ones = tally.ones.(mp) and totals = tally.totals.(mp) in
                    for i = 0 to ni - 1 do
                      match unpack_vote packed i with
                      | Some v ->
                        if v then ones.(i) <- ones.(i) + 1;
                        totals.(i) <- totals.(i) + 1
                      | None -> ()
                    done
                  | Some _ | None -> ()
                end
              | _ -> ())
            inboxes.(p))
        members;
      tally)

(* The tree is the root stream's first split: public, so whoever knows the
   seed (the adaptive adversary included) knows the topology. *)
let tree_of_root ~params root = Tree.build (Prng.split root) (Params.tree_config params)
let tree ~params ~seed = tree_of_root ~params (Prng.create seed)

let run ?(retries = 0) ?quarantine ~params ~seed ~inputs ~behavior ~strategy ?budget
    () =
  let (_ : Params.t) = Params.validate params in
  let n = params.Params.n in
  if Array.length inputs <> n then invalid_arg "Ae_ba.run: inputs length";
  let root = Prng.create seed in
  let tree = tree_of_root ~params root in
  let comm =
    Comm.create ~retries ?quarantine ~params ~tree ~seed:(Prng.bits64 root) ~behavior
      ~strategy ?budget ()
  in
  (* Detected quorum shortfalls: (good member, vote round) pairs in which
     the member heard no votes at all — its tally carries no information
     and [update_vote] falls back to its current value.  Purely a
     detection counter; the vote loop is its own retry mechanism. *)
  let quorum_shortfalls = ref 0 in
  let net = Comm.net comm in
  let layout = Layout.make params tree in
  let levels = layout.Layout.levels in
  let adv_rng = Prng.split root in
  let graph_rng = Prng.split root in
  (* Step 1: deal the arrays and push the 1-shares up to level 2. *)
  let arrays =
    Array.init n (fun p ->
        let rng = Ks_sim.Net.proc_rng net p in
        Array.init layout.Layout.total (fun _ -> Zp.random rng))
  in
  let dealer_corrupt_at_deal = Array.init n (fun p -> Ks_sim.Net.is_corrupt net p) in
  Log.debug (fun m ->
      m "dealt %d arrays of %d words; shares at level 2" n layout.Layout.total);
  Comm.deal_all comm ~arrays;
  Comm.reshare_up comm ~cands:(List.init n (fun i -> i)) ~drop:[];
  (* Step 2: elections level by level. *)
  let elections = ref [] in
  let winners_by_node = ref [||] in
  (* winners_by_node.(node at current level) = winner cand ids *)
  for level = 2 to levels - 1 do
    let node_count = Tree.node_count tree ~level in
    let nodes = List.init node_count (fun j -> j) in
    let cands_at =
      Array.init node_count (fun j ->
          if level = 2 then Array.of_list (Tree.children tree ~level ~node:j)
          else
            Array.concat
              (List.map
                 (fun ch -> !winners_by_node.(ch))
                 (Tree.children tree ~level ~node:j)))
    in
    let members_of j = Tree.members tree ~level ~node:j in
    let size = Tree.node_size tree ~level in
    let graphs =
      Array.init node_count (fun _ ->
          Graph.random_regular graph_rng ~n:size
            ~degree:(Stdlib.min params.Params.aeba_degree (size - 1)))
    in
    let num_bins_of =
      Array.map
        (fun cands ->
          Election.num_bins ~candidates:(Stdlib.max 1 (Array.length cands))
            ~winners:params.Params.winners)
        cands_at
    in
    let bin_bits_of = Array.map Intmath.bits_needed num_bins_of in
    let instances_of j = Array.length cands_at.(j) * bin_bits_of.(j) in
    (* (a) expose bin choices. *)
    let bin_ranges =
      List.concat_map
        (fun j ->
          Array.to_list
            (Array.map (fun c -> (c, layout.Layout.block_off.(level), 1)) cands_at.(j)))
        nodes
    in
    let bin_view = Comm.open_ranges_view comm ~level ~ranges:bin_ranges in
    (* Ballot state: votes.(node).(member).(instance). *)
    let ballots =
      Array.init node_count (fun j ->
          Array.init size (fun mp ->
              Array.init (instances_of j) (fun i ->
                  let ci = i / bin_bits_of.(j) in
                  let b = i mod bin_bits_of.(j) in
                  match bin_view ~cand:cands_at.(j).(ci) ~member:mp with
                  | Some words ->
                    let bin = Election.bin_of_word ~num_bins:num_bins_of.(j) words.(0) in
                    bin land (1 lsl b) <> 0
                  | None -> false)))
    in
    (* (b) agree on bin choices: round i's coins come from candidate i's
       block. *)
    let max_r = Array.fold_left (fun acc c -> Stdlib.max acc (Array.length c)) 0 cands_at in
    let rounds = Stdlib.min max_r params.Params.max_election_rounds in
    for i = 0 to rounds - 1 do
      let coin_ranges =
        List.filter_map
          (fun j ->
            if i < Array.length cands_at.(j) then
              Some
                ( cands_at.(j).(i),
                  layout.Layout.block_off.(level) + 1,
                  layout.Layout.r_max.(level) )
            else None)
          nodes
      in
      let coin_view =
        if coin_ranges = [] then fun ~cand:_ ~member:_ -> None
        else Comm.open_ranges_view comm ~level ~ranges:coin_ranges
      in
      let tallies =
        vote_round comm ~behavior ~adv_rng ~level ~node_count ~members_of
          ~graph_of:(fun j -> graphs.(j))
          ~votes_of:(fun j -> ballots.(j))
          ~instances_of
      in
      List.iter
        (fun j ->
          let members = members_of j in
          let tally = tallies.(j) in
          let coin_words mp =
            if i < Array.length cands_at.(j) then
              coin_view ~cand:cands_at.(j).(i) ~member:mp
            else None
          in
          Array.iteri
            (fun mp p ->
              if not (Ks_sim.Net.is_corrupt net p) then begin
                if
                  instances_of j > 0
                  && Array.for_all (fun total -> total = 0) tally.totals.(mp)
                then incr quorum_shortfalls;
                let words = coin_words mp in
                for inst = 0 to instances_of j - 1 do
                  let ci = inst / bin_bits_of.(j) in
                  let b = inst mod bin_bits_of.(j) in
                  let coin =
                    match words with
                    | Some w when ci < Array.length w ->
                      Some ((w.(ci) lsr b) land 1 = 1)
                    | Some _ | None -> None
                  in
                  ballots.(j).(mp).(inst) <-
                    Aeba_coin.update_vote ~epsilon:params.Params.epsilon ~eps0:0.05
                      ~ones:tally.ones.(mp).(inst) ~total:tally.totals.(mp).(inst) ~coin
                      ~current:ballots.(j).(mp).(inst)
                done
              end)
            members)
        nodes
    done;
    (* (c) winners per member view, canonical by plurality of good views. *)
    let new_winners = Array.make node_count [||] in
    List.iter
      (fun j ->
        let members = members_of j in
        let r = Array.length cands_at.(j) in
        let views =
          Array.init size (fun mp ->
              let bins =
                Array.init r (fun ci ->
                    let bin = ref 0 in
                    for b = 0 to bin_bits_of.(j) - 1 do
                      if ballots.(j).(mp).((ci * bin_bits_of.(j)) + b) then
                        bin := !bin lor (1 lsl b)
                    done;
                    !bin)
              in
              Election.winner_indices ~num_bins:num_bins_of.(j)
                ~target:params.Params.winners bins)
        in
        let counts = Hashtbl.create 16 in
        Array.iteri
          (fun mp p ->
            if not (Ks_sim.Net.is_corrupt net p) then begin
              let key = Array.to_list views.(mp) in
              Hashtbl.replace counts key
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
            end)
          members;
        let canonical = ref [] and best = ref 0 and good_total = ref 0 in
        Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_list_cmp
          (fun key c ->
            good_total := !good_total + c;
            if c > !best then begin
              best := c;
              canonical := key
            end)
          counts;
        let winner_ids = Array.of_list (List.map (fun i -> cands_at.(j).(i)) !canonical) in
        new_winners.(j) <- winner_ids;
        let good_w =
          Array.fold_left
            (fun acc c -> if dealer_corrupt_at_deal.(c) then acc else acc + 1)
            0 winner_ids
        in
        elections :=
          {
            level;
            node = j;
            candidates = cands_at.(j);
            winners = winner_ids;
            good_winner_fraction =
              (if Array.length winner_ids = 0 then 0.0
               else float_of_int good_w /. float_of_int (Array.length winner_ids));
            member_agreement =
              (if !good_total = 0 then 1.0
               else float_of_int !best /. float_of_int !good_total);
          }
          :: !elections)
      nodes;
    (* (d) winners climb, losers are erased. *)
    let winner_list =
      List.concat_map (fun j -> Array.to_list new_winners.(j)) nodes
    in
    let winner_set = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace winner_set c ()) winner_list;
    let losers =
      List.concat_map
        (fun j ->
          List.filter
            (fun c -> not (Hashtbl.mem winner_set c))
            (Array.to_list cands_at.(j)))
        nodes
    in
    Log.debug (fun m ->
        m "level %d elections done: %d winners climb, %d losers erased" level
          (List.length winner_list) (List.length losers));
    Comm.reshare_up comm ~cands:winner_list ~drop:losers;
    winners_by_node := new_winners
  done;
  (* Step 3: the root instance on the protocol inputs. *)
  let root_cands = Array.concat (Array.to_list !winners_by_node) in
  Log.debug (fun m ->
      m "root instance: %d surviving arrays feed the coins" (Array.length root_cands));
  let votes = Array.copy inputs in
  let root_graph =
    Graph.random_regular graph_rng ~n
      ~degree:(Stdlib.min params.Params.aeba_degree (n - 1))
  in
  let root_rounds =
    Stdlib.min (Stdlib.max 1 (Array.length root_cands)) params.Params.aeba_rounds
  in
  for i = 0 to root_rounds - 1 do
    let coin_view =
      if Array.length root_cands = 0 then fun ~cand:_ ~member:_ -> None
      else
        Comm.open_ranges_view comm ~level:levels
          ~ranges:
            [ (root_cands.(i mod Array.length root_cands), layout.Layout.root_coin_off, 1) ]
    in
    let msgs = ref [] in
    for p = 0 to n - 1 do
      let send v =
        Array.iter
          (fun np ->
            let e =
              { src = p; dst = np; payload = Comm.Vote { level = levels; node = 0; ba = 0; vote = v } }
            in
            if Ks_sim.Net.is_corrupt net p then Comm.queue_adversarial comm [ e ]
            else msgs := e :: !msgs)
          (Graph.neighbours root_graph p)
      in
      if Ks_sim.Net.is_corrupt net p then begin
        match behavior with
        | Comm.Follow -> send votes.(p)
        | Comm.Silent -> ()
        | Comm.Garbage -> send (Prng.bool adv_rng)
        | Comm.Flip -> send (not votes.(p))
        | Comm.Equivocate ->
          (* Conflicting root votes: the honest vote to even neighbours,
             its negation to odd ones. *)
          Array.iter
            (fun np ->
              Comm.queue_adversarial comm
                [ { src = p; dst = np;
                    payload =
                      Comm.Vote
                        { level = levels; node = 0; ba = 0;
                          vote = (if np land 1 = 0 then votes.(p) else not votes.(p)) } } ])
            (Graph.neighbours root_graph p)
      end
      else send votes.(p)
    done;
    let inboxes = Comm.exchange comm !msgs in
    let next = Array.copy votes in
    for p = 0 to n - 1 do
      if not (Ks_sim.Net.is_corrupt net p) then begin
        let seen = Hashtbl.create 64 in
        let ones = ref 0 and total = ref 0 in
        List.iter
          (fun e ->
            match e.payload with
            | Comm.Vote { level = ml; vote; _ }
              when ml = levels && not (Hashtbl.mem seen e.src)
                   && Graph.adjacent root_graph p e.src
                   && not (Comm.is_quarantined comm ~accuser:p ~offender:e.src) ->
              Hashtbl.add seen e.src ();
              incr total;
              if vote then incr ones
            | _ -> ())
          inboxes.(p);
        if !total = 0 then incr quorum_shortfalls;
        let coin =
          if Array.length root_cands = 0 then None
          else
            match
              coin_view ~cand:root_cands.(i mod Array.length root_cands) ~member:p
            with
            | Some w -> Some (w.(0) land 1 = 1)
            | None -> None
        in
        next.(p) <-
          Aeba_coin.update_vote ~epsilon:params.Params.epsilon ~eps0:0.05 ~ones:!ones
            ~total:!total ~coin ~current:votes.(p)
      end
    done;
    Array.blit next 0 votes 0 n
  done;
  (* Outcome metrics over the good processors. *)
  let good p = not (Ks_sim.Net.is_corrupt net p) in
  let ones = ref 0 and total = ref 0 in
  for p = 0 to n - 1 do
    if good p then begin
      incr total;
      if votes.(p) then incr ones
    end
  done;
  let majority = 2 * !ones >= !total in
  let agreement =
    if !total = 0 then 1.0
    else
      float_of_int (Stdlib.max !ones (!total - !ones)) /. float_of_int !total
  in
  let valid =
    let found = ref false in
    for p = 0 to n - 1 do
      if good p && inputs.(p) = majority then found := true
    done;
    !found
  in
  (* §3.5: the lazily opened coin subsequence for the everywhere phase. *)
  let coin_cache : (int, int option array) Hashtbl.t = Hashtbl.create 16 in
  let coin_view ~iteration p =
    if Array.length root_cands = 0 then None
    else begin
      let per_proc =
        match Hashtbl.find_opt coin_cache iteration with
        | Some a -> a
        | None ->
          let cand = root_cands.(iteration mod Array.length root_cands) in
          let view =
            Comm.open_ranges_view comm ~level:levels
              ~ranges:[ (cand, layout.Layout.a2e_coin_off, 1) ]
          in
          let a =
            Array.init n (fun q ->
                match view ~cand ~member:q with
                | Some w -> Some (w.(0) mod params.Params.a2e_labels)
                | None -> None)
          in
          Hashtbl.replace coin_cache iteration a;
          a
      in
      per_proc.(p)
    end
  in
  {
    votes;
    agreement;
    majority;
    valid;
    elections = List.rev !elections;
    root_candidates = root_cands;
    quorum_shortfalls = !quorum_shortfalls;
    comm;
    layout;
    coin_view;
  }
