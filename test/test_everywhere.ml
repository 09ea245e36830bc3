module E = Ks_core.Everywhere
module Params = Ks_core.Params
module Attacks = Ks_attacks
module Inputs = Ks_workload.Inputs
module Prng = Ks_stdx.Prng

let run ?(n = 32) ?(scenario = Attacks.honest) ?(seed = 1L) ?(inputs = Inputs.Split) () =
  let params = Params.practical n in
  let inputs = Inputs.generate (Prng.create seed) ~n inputs in
  Attacks.everywhere ~params ~seed ~inputs scenario

let test_honest () =
  let r = run () in
  Alcotest.(check bool) "success" true r.E.success;
  Alcotest.(check bool) "safe" true r.E.safe;
  Alcotest.(check bool) "agreed value present" true (r.E.agreed_value <> None)

let test_validity_all_one () =
  let r = run ~inputs:Inputs.All_one () in
  Alcotest.(check bool) "success" true r.E.success;
  Alcotest.(check (option int)) "decides the unanimous input" (Some 1) r.E.agreed_value

let test_validity_all_zero () =
  let r = run ~inputs:Inputs.All_zero () in
  Alcotest.(check bool) "success" true r.E.success;
  Alcotest.(check (option int)) "decides the unanimous input" (Some 0) r.E.agreed_value

let test_crash () =
  let r = run ~scenario:Attacks.crash () in
  Alcotest.(check bool) "success under crash" true r.E.success;
  Alcotest.(check bool) "safe" true r.E.safe

let test_byzantine () =
  let r = run ~scenario:Attacks.byzantine_static () in
  Alcotest.(check bool) "safe" true r.E.safe;
  Alcotest.(check bool) "success under byzantine" true r.E.success

let test_flood () =
  let r = run ~scenario:Attacks.flood () in
  Alcotest.(check bool) "safe under flooding" true r.E.safe;
  Alcotest.(check bool) "success under flooding" true r.E.success

let test_metrics_positive () =
  let r = run () in
  Alcotest.(check bool) "ae bits positive" true (r.E.max_sent_bits_ae > 0);
  Alcotest.(check bool) "a2e bits positive" true (r.E.max_sent_bits_a2e > 0);
  Alcotest.(check bool) "total >= parts" true
    (r.E.max_sent_bits_total >= r.E.max_sent_bits_ae
     && r.E.max_sent_bits_total >= r.E.max_sent_bits_a2e);
  Alcotest.(check bool) "rounds counted" true (r.E.ae_rounds > 0 && r.E.a2e_rounds > 0);
  Alcotest.(check bool) "total bits across procs" true
    (r.E.total_sent_bits >= r.E.max_sent_bits_total)

let test_carry_corruptions () =
  let base = Ks_sim.Adversary.none in
  let s = E.carry_corruptions base ~carried:[ 1; 2; 3 ] in
  let picked = s.Ks_sim.Types.initial_corruptions (Prng.create 1L) ~n:10 ~budget:5 in
  Alcotest.(check (list int)) "carried first" [ 1; 2; 3 ] picked

let test_corruption_carries_to_a2e () =
  let n = 32 in
  let params = Params.practical n in
  let scenario = Attacks.byzantine_static in
  let budget = Attacks.budget_of scenario ~params in
  let seen_carried = ref [] in
  let r =
    E.run ~params ~seed:5L
      ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~behavior:scenario.Attacks.behavior
      ~tree_strategy:
        (Ks_sim.Adversary.make ~name:"static"
           ~initial_corruptions:(fun rng ~n ~budget:b ->
             Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
           ())
      ~a2e_strategy:(fun ~carried ~coin:_ ->
        seen_carried := carried;
        E.carry_corruptions Ks_sim.Adversary.none ~carried)
      ~budget ()
  in
  ignore r;
  Alcotest.(check int) "all tree corruptions carried" budget
    (List.length !seen_carried)

let () =
  Alcotest.run "everywhere"
    [
      ( "integration",
        [
          Alcotest.test_case "honest" `Slow test_honest;
          Alcotest.test_case "validity all-one" `Slow test_validity_all_one;
          Alcotest.test_case "validity all-zero" `Slow test_validity_all_zero;
          Alcotest.test_case "crash" `Slow test_crash;
          Alcotest.test_case "byzantine" `Slow test_byzantine;
          Alcotest.test_case "flood" `Slow test_flood;
          Alcotest.test_case "metrics" `Slow test_metrics_positive;
        ] );
      ( "composition",
        [
          Alcotest.test_case "carry corruptions" `Quick test_carry_corruptions;
          Alcotest.test_case "corruption carries" `Slow test_corruption_carries_to_a2e;
        ] );
    ]
