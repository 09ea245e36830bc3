module Ae_ba = Ks_core.Ae_ba
module Params = Ks_core.Params
module Comm = Ks_core.Comm
module Tree = Ks_topology.Tree
module Prng = Ks_stdx.Prng

let static_strategy budget =
  Ks_sim.Adversary.make ~name:"static"
    ~initial_corruptions:(fun rng ~n ~budget:b ->
      Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
    ()

let run ?(n = 32) ?(budget = 0) ?(behavior = Comm.Follow) ?(inputs = fun i -> i mod 2 = 0)
    ?(seed = 42L) () =
  let params = Params.practical n in
  Ae_ba.run ~params ~seed ~inputs:(Array.init n inputs) ~behavior
    ~strategy:(static_strategy budget) ~budget ()

let test_layout () =
  let params = Params.practical 64 in
  let tree = Tree.build (Prng.create 1L) (Params.tree_config params) in
  let layout = Ae_ba.Layout.make params tree in
  Alcotest.(check int) "levels" (Tree.levels tree) layout.Ae_ba.Layout.levels;
  (* Blocks tile the array without overlap: first election block at 0,
     coin words at the end. *)
  Alcotest.(check int) "first block at origin" 0 layout.Ae_ba.Layout.block_off.(2);
  Alcotest.(check int) "a2e coin after root coin"
    (layout.Ae_ba.Layout.root_coin_off + 1)
    layout.Ae_ba.Layout.a2e_coin_off;
  Alcotest.(check int) "total covers everything"
    (layout.Ae_ba.Layout.a2e_coin_off + 1)
    layout.Ae_ba.Layout.total;
  Alcotest.(check int) "level-2 elections have q candidates" params.Params.q
    layout.Ae_ba.Layout.r_max.(2)

let test_honest_agreement () =
  let r = run () in
  Alcotest.(check (float 0.001)) "full agreement" 1.0 r.Ae_ba.agreement;
  Alcotest.(check bool) "valid" true r.Ae_ba.valid

let test_validity_unanimous_inputs () =
  let r0 = run ~inputs:(fun _ -> false) () in
  Alcotest.(check bool) "all-zero stays zero" false r0.Ae_ba.majority;
  Alcotest.(check (float 0.001)) "agreement" 1.0 r0.Ae_ba.agreement;
  let r1 = run ~inputs:(fun _ -> true) () in
  Alcotest.(check bool) "all-one stays one" true r1.Ae_ba.majority

let test_elections_recorded () =
  let r = run () in
  Alcotest.(check bool) "has elections" true (List.length r.Ae_ba.elections > 0);
  List.iter
    (fun (e : Ae_ba.election_stats) ->
      Alcotest.(check bool) "winners nonempty" true (Array.length e.winners > 0);
      Alcotest.(check bool) "winners among candidates" true
        (Array.for_all
           (fun w -> Array.exists (fun c -> c = w) e.candidates)
           e.winners);
      Alcotest.(check bool) "member agreement in [0,1]" true
        (e.member_agreement >= 0.0 && e.member_agreement <= 1.0))
    r.Ae_ba.elections

let test_root_candidates_survive () =
  let r = run () in
  Alcotest.(check bool) "root candidates exist" true
    (Array.length r.Ae_ba.root_candidates > 0);
  (* Root candidates still hold live shares at the root level. *)
  let comm = r.Ae_ba.comm in
  let levels = Tree.levels (Comm.tree comm) in
  Array.iter
    (fun c ->
      Alcotest.(check (option int)) "live at root" (Some levels)
        (Comm.level_of comm ~cand:c))
    r.Ae_ba.root_candidates

let test_byzantine_quarter () =
  let r = run ~budget:8 ~behavior:Comm.Garbage () in
  Alcotest.(check bool)
    (Printf.sprintf "agreement %.2f >= 0.9" r.Ae_ba.agreement)
    true (r.Ae_ba.agreement >= 0.9);
  Alcotest.(check bool) "valid" true r.Ae_ba.valid

let test_crash_quarter () =
  let r = run ~budget:8 ~behavior:Comm.Silent () in
  Alcotest.(check bool) "agreement" true (r.Ae_ba.agreement >= 0.9);
  Alcotest.(check bool) "valid" true r.Ae_ba.valid

let test_flip_equivocation () =
  let r = run ~budget:8 ~behavior:Comm.Flip () in
  Alcotest.(check bool) "agreement" true (r.Ae_ba.agreement >= 0.9)

let test_coin_view_mostly_common () =
  let r = run ~budget:6 ~behavior:Comm.Garbage () in
  let net = Comm.net r.Ae_ba.comm in
  let n = 32 in
  for iteration = 0 to 2 do
    let counts = Hashtbl.create 8 in
    let good_total = ref 0 in
    for p = 0 to n - 1 do
      if not (Ks_sim.Net.is_corrupt net p) then begin
        incr good_total;
        match r.Ae_ba.coin_view ~iteration p with
        | Some k ->
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
        | None -> ()
      end
    done;
    let plurality = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) counts 0 in
    Alcotest.(check bool)
      (Printf.sprintf "iteration %d plurality %d/%d" iteration plurality !good_total)
      true
      (float_of_int plurality >= 0.85 *. float_of_int !good_total)
  done

let test_coin_view_deterministic () =
  let r = run () in
  let a = r.Ae_ba.coin_view ~iteration:0 5 in
  let b = r.Ae_ba.coin_view ~iteration:0 5 in
  Alcotest.(check (option int)) "cached" a b

let test_deterministic_given_seed () =
  let a = run ~seed:7L () and b = run ~seed:7L () in
  Alcotest.(check (array bool)) "same votes" a.Ae_ba.votes b.Ae_ba.votes;
  let c = run ~seed:8L () in
  ignore c
  (* different seed may or may not differ in votes; we only pin determinism *)

let test_half_policy_still_works_at_quarter () =
  (* The paper-literal t = n/2 sharing: no error-correcting slack, so
     corrupted custodians become erasures; the majority layers must still
     carry the tournament at 25% corruption. *)
  let n = 32 in
  let params =
    { (Params.practical n) with Params.share_policy = Params.Half_minus_one }
  in
  let r =
    Ae_ba.run ~params ~seed:6L
      ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~behavior:Comm.Garbage ~strategy:(static_strategy 8) ~budget:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "agreement %.2f" r.Ae_ba.agreement)
    true (r.Ae_ba.agreement >= 0.85)

let test_adaptive_mid_run_corruption () =
  let n = 32 in
  let params = Params.practical n in
  let strategy =
    Ks_sim.Adversary.make ~name:"creeping"
      ~adapt:(fun view ->
        if view.Ks_sim.Types.view_round mod 7 = 3 && view.Ks_sim.Types.view_budget_left > 0
        then [ Ks_stdx.Prng.int view.Ks_sim.Types.view_rng n ]
        else [])
      ()
  in
  let r =
    Ae_ba.run ~params ~seed:3L ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~behavior:Comm.Garbage ~strategy ~budget:8 ()
  in
  Alcotest.(check bool) "survives adaptive corruption" true (r.Ae_ba.agreement >= 0.85)

(* --- Ballot stuffing -------------------------------------------------------

   Both vote loops (the elections' [Votes] ballots and the root [Vote]s)
   count one ballot per graph neighbour and ignore non-neighbours and
   quarantined senders.  n = 32, 8 corrupt members under [Follow]: in
   every vote round each forges an all-ones ballot for every (level,
   node) it sits in, plus a root vote for 1, and sends each to every
   processor [copies] times.  With each sender counted once, nothing the
   run decides may depend on [copies]. *)

let stuffed ~copies =
  let n = 32 and budget = 8 and seed = 42L in
  let params = Params.practical n in
  let tree = Ae_ba.tree ~params ~seed in
  let levels = Tree.levels tree in
  let forged src =
    Comm.Vote { level = levels; node = 0; ba = 0; vote = true }
    :: List.concat_map
         (fun level ->
           List.filter_map
             (fun node ->
               if Option.is_some (Tree.position_of tree ~level ~node src) then
                 Some (Comm.Votes { level; node; packed = Bytes.make 8 '\xff' })
               else None)
             (List.init (Tree.node_count tree ~level) Fun.id))
         (List.init (levels - 2) (fun l -> l + 2))
  in
  let is_ballot (e : Comm.payload Ks_sim.Types.envelope) =
    match e.payload with Comm.Votes _ | Comm.Vote _ -> true | _ -> false
  in
  let sent = ref 0 in
  let strategy =
    Ks_sim.Adversary.make ~name:"ballot-stuffing"
      ~initial_corruptions:(fun rng ~n ~budget:b ->
        Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
      ~act:(fun view ->
        (* A vote round is one whose good traffic carries ballots. *)
        if not (List.exists is_ballot view.Ks_sim.Types.view_visible) then []
        else
          List.concat_map
            (fun src ->
              List.concat_map
                (fun payload ->
                  List.concat_map
                    (fun dst ->
                      sent := !sent + copies;
                      List.init copies (fun _ -> { Ks_sim.Types.src; dst; payload }))
                    (List.init n Fun.id))
                (forged src))
            view.Ks_sim.Types.view_corrupt)
      ()
  in
  let r =
    Ae_ba.run ~params ~seed ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~behavior:Comm.Follow ~strategy ~budget ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "forged ballots sent (x%d)" copies)
    true (!sent > 0);
  r

let test_ballot_stuffing () =
  let once = stuffed ~copies:1 and flooded = stuffed ~copies:20 in
  Alcotest.(check (array bool)) "votes" once.Ae_ba.votes flooded.Ae_ba.votes;
  Alcotest.(check (float 0.0)) "agreement" once.Ae_ba.agreement flooded.Ae_ba.agreement;
  Alcotest.(check (list (array int))) "election winners"
    (List.map (fun (e : Ae_ba.election_stats) -> e.winners) once.Ae_ba.elections)
    (List.map (fun (e : Ae_ba.election_stats) -> e.winners) flooded.Ae_ba.elections)

let () =
  Alcotest.run "ae_ba"
    [
      ("layout", [ Alcotest.test_case "block layout" `Quick test_layout ]);
      ( "integration",
        [
          Alcotest.test_case "honest agreement" `Slow test_honest_agreement;
          Alcotest.test_case "validity" `Slow test_validity_unanimous_inputs;
          Alcotest.test_case "elections recorded" `Slow test_elections_recorded;
          Alcotest.test_case "root candidates" `Slow test_root_candidates_survive;
          Alcotest.test_case "byzantine 25%" `Slow test_byzantine_quarter;
          Alcotest.test_case "crash 25%" `Slow test_crash_quarter;
          Alcotest.test_case "flip 25%" `Slow test_flip_equivocation;
          Alcotest.test_case "coin views common" `Slow test_coin_view_mostly_common;
          Alcotest.test_case "coin view cached" `Slow test_coin_view_deterministic;
          Alcotest.test_case "deterministic" `Slow test_deterministic_given_seed;
          Alcotest.test_case "half policy" `Slow test_half_policy_still_works_at_quarter;
          Alcotest.test_case "adaptive corruption" `Slow test_adaptive_mid_run_corruption;
          Alcotest.test_case "ballot stuffing" `Slow test_ballot_stuffing;
        ] );
    ]
