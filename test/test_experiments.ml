(* Smoke coverage of the workload layer: inputs, attack construction, and
   the cheap experiment tables (the expensive sweeps run in bench). *)
module Inputs = Ks_workload.Inputs
module Attacks = Ks_attacks
module Experiments = Ks_workload.Experiments
module Params = Ks_core.Params
module Prng = Ks_stdx.Prng

let test_inputs_shapes () =
  let rng = Prng.create 1L in
  List.iter
    (fun w ->
      let a = Inputs.generate rng ~n:50 w in
      Alcotest.(check int) (Inputs.name w) 50 (Array.length a))
    Inputs.all;
  let zeros = Inputs.generate rng ~n:10 Inputs.All_zero in
  Alcotest.(check bool) "all zero" true (Array.for_all not zeros);
  let minority = Inputs.generate rng ~n:100 (Inputs.Minority_one 0.25) in
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 minority in
  Alcotest.(check int) "minority count" 25 ones

let test_budgets () =
  let params = Params.practical 64 in
  Alcotest.(check int) "honest budget" 0 (Attacks.budget_of Attacks.honest ~params);
  let b = Attacks.budget_of Attacks.byzantine_static ~params in
  Alcotest.(check bool) "capped by model" true (b <= Params.corruption_budget params);
  Alcotest.(check bool) "roughly a quarter" true (b >= 64 / 5)

let test_eclipse_targets_whole_leaves () =
  let params = Params.practical 64 in
  let tree = Ks_core.Everywhere.tree ~params ~seed:2L in
  let strategy = Attacks.tree_strategy Attacks.eclipse ~params ~tree in
  let picked =
    strategy.Ks_sim.Types.initial_corruptions (Prng.create 3L) ~n:64
      ~budget:(Params.corruption_budget params)
  in
  Alcotest.(check bool) "nonempty" true (picked <> []);
  (* At least one level-1 node is fully covered. *)
  let covered = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace covered p ()) picked;
  let full_leaf =
    let found = ref false in
    for leaf = 0 to Ks_topology.Tree.node_count tree ~level:1 - 1 do
      let members = Ks_topology.Tree.members tree ~level:1 ~node:leaf in
      if Array.for_all (fun p -> Hashtbl.mem covered p) members then found := true
    done;
    !found
  in
  Alcotest.(check bool) "a whole leaf eclipsed" true full_leaf

let test_creeping_spends_gradually () =
  let params = Params.practical 64 in
  let want = Attacks.budget_of Attacks.byzantine_adaptive ~params in
  let strategy = Attacks.generic_strategy Attacks.byzantine_adaptive ~budget:want in
  let view round =
    {
      Ks_sim.Types.view_round = round;
      view_n = 64;
      view_is_corrupt = (fun _ -> false);
      view_corrupt = [];
      view_budget_left = 100;
      view_visible = [];
      view_rng = Prng.create 9L;
    }
  in
  let total = ref 0 in
  for round = 0 to 200 do
    total := !total + List.length (strategy.Ks_sim.Types.adapt (view round))
  done;
  Alcotest.(check int) "spends exactly its budget" want !total

let test_vote_flipper_echoes_minority () =
  let params = Params.practical 64 in
  let strategy = Attacks.vote_strategy Attacks.byzantine_static ~params in
  let visible =
    List.init 10 (fun i ->
        { Ks_sim.Types.src = i; dst = 63; payload = i < 7 (* majority true *) })
  in
  let view =
    {
      Ks_sim.Types.view_round = 0;
      view_n = 64;
      view_is_corrupt = (fun p -> p = 63);
      view_corrupt = [ 63 ];
      view_budget_left = 0;
      view_visible = visible;
      view_rng = Prng.create 9L;
    }
  in
  let out = strategy.Ks_sim.Types.act view in
  Alcotest.(check bool) "echoes minority (false)" true
    (out <> [] && List.for_all (fun e -> e.Ks_sim.Types.payload = false) out);
  Alcotest.(check bool) "speaks only for corrupt procs" true
    (List.for_all (fun e -> e.Ks_sim.Types.src = 63) out)

let test_t1_t2_t10_tables_from_synthetic_points () =
  (* The scaling tables render from any collected points; synthetic data
     keeps this cheap. *)
  let pt n : Experiments.scaling_point =
    {
      Experiments.n;
      ks_ae_bits = 1000.0 *. float_of_int n ** 0.7;
      ks_a2e_bits = 500.0 *. sqrt (float_of_int n);
      ks_total_bits = 1100.0 *. float_of_int n ** 0.7;
      ks_rounds = 100.0 +. float_of_int n /. 10.0;
      rabin_bits = 20.0 *. float_of_int n;
      rabin_rounds = 20.0;
      king_bits = float_of_int (n * n) /. 10.0;
      king_rounds = float_of_int n;
      ks_success = true;
    }
  in
  let pts = [ pt 64; pt 128; pt 256 ] in
  let t1 = Experiments.t1_bits pts in
  Alcotest.(check int) "t1 rows = points + slope + normalised" 5 (List.length t1);
  let t2 = Experiments.t2_latency pts in
  Alcotest.(check int) "t2 rows" 3 (List.length t2);
  let t10 = Experiments.t10_crossover pts in
  Alcotest.(check int) "t10 rows" 3 (List.length t10)

let test_t5_table () =
  let rows = Experiments.t5_election ~candidates:128 ~trials:40 () in
  Alcotest.(check int) "five sweep rows" 5 (List.length rows)

let test_t7_table () =
  let rows = Experiments.t7_hiding ~trials:2000 () in
  Alcotest.(check int) "five rows" 5 (List.length rows)

let test_t8_table () =
  let rows = Experiments.t8_samplers ~r:256 ~s:256 () in
  Alcotest.(check int) "five degrees" 5 (List.length rows)

let test_table_list () =
  Alcotest.(check (list string))
    "t1 ... t17, in order"
    (List.init 17 (fun i -> Printf.sprintf "t%d" (i + 1)))
    Experiments.table_names

(* Everything [f] writes to stdout, through a temporary file. *)
let capture_stdout f =
  let path = Filename.temp_file "ks_tables" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The cheap tables' quick configurations, run through the table list,
   print exactly the blocks of the recorded quick sweep. *)
let test_quick_tables_match_golden () =
  let golden =
    let path =
      Filename.concat (Filename.dirname Sys.executable_name) "../bench/quick.golden"
    in
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun name ->
      let block =
        capture_stdout (fun () -> Experiments.run_tables ~quick:true [ name ])
      in
      Alcotest.(check bool) (name ^ " prints a table") true (block <> "");
      Alcotest.(check bool) (name ^ " block is in bench/quick.golden") true
        (contains golden block))
    [ "t5"; "t7"; "t8"; "t14" ]

let test_universe_reduction () =
  let n = 32 in
  let params = Params.practical n in
  let model_budget = Params.corruption_budget params in
  let strategy =
    Ks_sim.Adversary.make ~name:"half-upfront"
      ~initial_corruptions:(fun rng ~n ~budget:_ ->
        Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(model_budget / 2))
      ()
  in
  let r =
    Ks_core.Universe.reduce ~params ~seed:3L ~behavior:Ks_core.Comm.Garbage
      ~strategy ~budget:model_budget ()
  in
  Alcotest.(check bool) "committee nonempty" true
    (Array.length r.Ks_core.Universe.committee > 0);
  Alcotest.(check bool) "representative at election" true
    (r.Ks_core.Universe.good_at_election >= 0.5);
  Alcotest.(check bool) "hunt hurts the processors" true
    (r.Ks_core.Universe.good_after_hunt <= r.Ks_core.Universe.good_at_election);
  (* The arrays survive the hunt: coins stay mostly common. *)
  Alcotest.(check bool)
    (Printf.sprintf "coins still common (%.2f)" r.Ks_core.Universe.coin_commonality)
    true
    (r.Ks_core.Universe.coin_commonality >= 0.6)

let () =
  Alcotest.run "experiments"
    [
      ( "workload",
        [
          Alcotest.test_case "inputs" `Quick test_inputs_shapes;
          Alcotest.test_case "budgets" `Quick test_budgets;
          Alcotest.test_case "eclipse" `Quick test_eclipse_targets_whole_leaves;
          Alcotest.test_case "creeping budget" `Quick test_creeping_spends_gradually;
          Alcotest.test_case "vote flipper" `Quick test_vote_flipper_echoes_minority;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table list" `Quick test_table_list;
          Alcotest.test_case "quick tables = golden" `Slow test_quick_tables_match_golden;
          Alcotest.test_case "t1/t2/t10 synthetic" `Quick test_t1_t2_t10_tables_from_synthetic_points;
          Alcotest.test_case "t5" `Quick test_t5_table;
          Alcotest.test_case "t7" `Slow test_t7_table;
          Alcotest.test_case "t8" `Slow test_t8_table;
          Alcotest.test_case "universe reduction" `Slow test_universe_reduction;
        ] );
    ]
