module Prng = Ks_stdx.Prng
module Stats = Ks_stdx.Stats
module Table = Ks_stdx.Table
module Intmath = Ks_stdx.Intmath

type row = string list

(* One cell's replicas: [f] once per seed [s] of [seeds], at protocol
   seed [n]·1000003 + s + [offset] (each table keeps its own offset, so
   no two tables share a stream), results in seed order. *)
let replicate ~n ~offset seeds f =
  List.map
    (fun s ->
      f (Int64.add (Int64.mul 1000003L (Int64.of_int n)) (Int64.of_int (s + offset))))
    seeds

(* The split inputs a replica draws from its own protocol seed. *)
let split_inputs ~n seed = Inputs.generate (Prng.create seed) ~n Inputs.Split

let count p xs = List.fold_left (fun k x -> if p x then k + 1 else k) 0 xs
let rate p xs = float_of_int (count p xs) /. float_of_int (List.length xs)
let tally p xs = Printf.sprintf "%d/%d" (count p xs) (List.length xs)
let mean f xs = Stats.mean (Array.of_list (List.map f xs))

type scaling_point = {
  n : int;
  ks_ae_bits : float;
  ks_a2e_bits : float;
  ks_total_bits : float;
  ks_rounds : float;
  rabin_bits : float;
  rabin_rounds : float;
  king_bits : float;
  king_rounds : float;
  ks_success : bool;
}

(* One full King–Saia run plus both baselines at a given n/seed, all under
   a 25% static Byzantine adversary. *)
let scaling_run ~n seed =
  let params = Ks_core.Params.practical n in
  let scenario = Ks_attacks.byzantine_static in
  let inputs = split_inputs ~n seed in
  let res = Ks_attacks.everywhere ~params ~seed ~inputs scenario in
  let rabin = Ks_attacks.rabin ~params ~seed ~inputs scenario in
  let pk_faults = Stdlib.max 1 (n / 5) in
  let king =
    Ks_baselines.Phase_king.run ~seed ~n ~budget:pk_faults ~faults:pk_faults ~inputs
      ~strategy:
        (Ks_attacks.generic_strategy scenario
           ~budget:(Ks_attacks.budget_of scenario ~params))
  in
  (res, rabin, king)

let collect_scaling ~ns ~seeds =
  List.map
    (fun n ->
      let runs = replicate ~n ~offset:0 seeds (scaling_run ~n) in
      let f sel = mean sel runs in
      {
        n;
        ks_ae_bits = f (fun (r, _, _) -> float_of_int r.Ks_core.Everywhere.max_sent_bits_ae);
        ks_a2e_bits = f (fun (r, _, _) -> float_of_int r.Ks_core.Everywhere.max_sent_bits_a2e);
        ks_total_bits =
          f (fun (r, _, _) -> float_of_int r.Ks_core.Everywhere.max_sent_bits_total);
        ks_rounds =
          f (fun (r, _, _) ->
              float_of_int (r.Ks_core.Everywhere.ae_rounds + r.Ks_core.Everywhere.a2e_rounds));
        rabin_bits = f (fun (_, r, _) -> float_of_int r.Ks_baselines.Outcome.max_sent_bits);
        rabin_rounds = f (fun (_, r, _) -> float_of_int r.Ks_baselines.Outcome.rounds);
        king_bits = f (fun (_, _, k) -> float_of_int k.Ks_baselines.Outcome.max_sent_bits);
        king_rounds = f (fun (_, _, k) -> float_of_int k.Ks_baselines.Outcome.rounds);
        ks_success = List.for_all (fun (r, _, _) -> r.Ks_core.Everywhere.success) runs;
      })
    ns

let slope pts sel =
  let ns = Array.of_list (List.map (fun p -> float_of_int p.n) pts) in
  let ys = Array.of_list (List.map sel pts) in
  fst (Stats.loglog_slope ns ys)

let t1_bits pts =
  let rows =
    List.map
      (fun p ->
        [
          Table.fint p.n;
          Table.fbits p.ks_ae_bits;
          Table.fbits p.ks_a2e_bits;
          Table.fbits p.ks_total_bits;
          Table.fbits p.rabin_bits;
          Table.fbits p.king_bits;
          (if p.ks_success then "yes" else "NO");
        ])
      pts
  in
  let footer =
    [
      "slope";
      Printf.sprintf "n^%.2f" (slope pts (fun p -> p.ks_ae_bits));
      Printf.sprintf "n^%.2f" (slope pts (fun p -> p.ks_a2e_bits));
      Printf.sprintf "n^%.2f" (slope pts (fun p -> p.ks_total_bits));
      Printf.sprintf "n^%.2f" (slope pts (fun p -> p.rabin_bits));
      Printf.sprintf "n^%.2f" (slope pts (fun p -> p.king_bits));
      "";
    ]
  in
  (* The Õ(√n) law, made visible: amplification bits divided by
     √n·log₂ n should be near-constant across the sweep. *)
  let normalised =
    "amplify/(sqrt n * lg n)"
    :: List.map
         (fun p ->
           let norm =
             p.ks_a2e_bits
             /. (sqrt (float_of_int p.n)
                 *. float_of_int (Intmath.ceil_log2 p.n))
           in
           Printf.sprintf "%.0f b" norm)
         pts
    @ List.init (6 - List.length pts) (fun _ -> "")
  in
  let normalised = List.filteri (fun i _ -> i < 7) normalised in
  let rows = rows @ [ footer; normalised ] in
  Table.print ~title:"T1 (Thm 1): max bits sent per good processor"
    ~headers:[ "n"; "KS tournament"; "KS amplify"; "KS total"; "Rabin"; "PhaseKing"; "agree" ]
    rows;
  rows

let t2_latency pts =
  let rows =
    List.map
      (fun p ->
        [
          Table.fint p.n;
          Table.ffloat ~decimals:0 p.ks_rounds;
          Table.ffloat ~decimals:0 p.rabin_rounds;
          Table.ffloat ~decimals:0 p.king_rounds;
        ])
      pts
  in
  Table.print ~title:"T2 (Thm 1): latency in synchronous rounds"
    ~headers:[ "n"; "King-Saia"; "Rabin"; "PhaseKing" ]
    rows;
  rows

let t10_crossover pts =
  let fit sel =
    let ns = Array.of_list (List.map (fun p -> float_of_int p.n) pts) in
    let ys = Array.of_list (List.map sel pts) in
    let lx = Array.map log ns and ly = Array.map log ys in
    let a, b, _ = Stats.linear_fit lx ly in
    (a, b)
  in
  let a_ks, b_ks = fit (fun p -> p.ks_total_bits) in
  let a_r, b_r = fit (fun p -> p.rabin_bits) in
  let a_k, b_k = fit (fun p -> p.king_bits) in
  let crossover (a1, b1) (a2, b2) =
    (* a1 + b1 x = a2 + b2 x, x = ln n *)
    if b2 <= b1 then None else Some (exp ((a1 -. a2) /. (b2 -. b1)))
  in
  let show = function
    | Some x when x < 1e15 -> Printf.sprintf "%.2e" x
    | Some _ -> ">1e15"
    | None -> "never"
  in
  let rows =
    [
      [ "King-Saia total"; Printf.sprintf "%.2f" (exp a_ks); Printf.sprintf "%.2f" b_ks; "-" ];
      [ "Rabin"; Printf.sprintf "%.2f" (exp a_r); Printf.sprintf "%.2f" b_r;
        show (crossover (a_ks, b_ks) (a_r, b_r)) ];
      [ "PhaseKing"; Printf.sprintf "%.2f" (exp a_k); Printf.sprintf "%.2f" b_k;
        show (crossover (a_ks, b_ks) (a_k, b_k)) ];
    ]
  in
  Table.print
    ~title:"T10: bits/processor power-law fits and extrapolated crossover n*"
    ~headers:[ "protocol"; "coefficient"; "exponent"; "crossover vs KS" ]
    rows;
  rows

let t3_ae_agreement ?(ns = [ 64; 128 ]) ?(seeds = [ 1; 2 ]) () =
  let scenarios =
    Ks_attacks.[ honest; crash; byzantine_static; byzantine_adaptive; eclipse ]
  in
  let rows =
    List.concat_map
      (fun n ->
        let params = Ks_core.Params.practical n in
        let target = 1.0 -. (1.0 /. float_of_int (Intmath.ceil_log2 n)) in
        List.map
          (fun sc ->
            let runs =
              replicate ~n ~offset:77 seeds (fun seed ->
                  Ks_attacks.ae ~params ~seed ~inputs:(split_inputs ~n seed) sc)
            in
            let gw =
              mean
                (fun (e : Ks_core.Ae_ba.election_stats) -> e.good_winner_fraction)
                (List.concat_map (fun r -> r.Ks_core.Ae_ba.elections) runs)
            in
            [
              Table.fint n;
              sc.Ks_attacks.name;
              Table.fpct (mean (fun r -> r.Ks_core.Ae_ba.agreement) runs);
              Table.fpct target;
              tally (fun r -> r.Ks_core.Ae_ba.valid) runs;
              Table.fpct gw;
            ])
          scenarios)
      ns
  in
  Table.print
    ~title:"T3 (Thm 2): almost-everywhere agreement vs adversary"
    ~headers:[ "n"; "adversary"; "agreement"; "target >=1-1/log n"; "valid"; "good winners" ]
    rows;
  rows

let t4_aeba_coins ?(n = 256) ?(trials = 10) () =
  let params = Ks_core.Params.practical n in
  let lg = Intmath.ceil_log2 n in
  let degree = params.Ks_core.Params.aeba_degree in
  let epsilon = params.Ks_core.Params.epsilon in
  let target = 1.0 -. (2.0 /. float_of_int lg) in
  let scenario = Ks_attacks.byzantine_static in
  (* Success = near-total agreement on a good input (agreement without
     validity is what an over-budget adversary still allows).  The vote
     strategy corrupts the row's fraction, not the entry's own. *)
  let success_rate ?(offset = 31) ?inputs ?(coin = Ks_core.Aeba_coin.Ideal)
      ~rounds ~fraction () =
    let budget = Ks_attacks.budget ~params ~fraction in
    replicate ~n ~offset (List.init trials succ) (fun seed ->
        let inputs =
          match inputs with Some i -> i | None -> split_inputs ~n seed
        in
        Ks_core.Aeba_coin.run_standalone ~seed ~n ~degree ~rounds ~epsilon ~budget
          ~inputs
          ~strategy:(scenario.Ks_attacks.vote ~params ~budget)
          ~coin ())
    |> rate (fun o ->
           o.Ks_core.Aeba_coin.agreement >= target && o.Ks_core.Aeba_coin.valid)
  in
  let part_a =
    List.map
      (fun rounds ->
        [
          Printf.sprintf "rounds=%d" rounds;
          "f=0.25, ideal coin";
          Table.fpct (success_rate ~rounds ~fraction:0.25 ());
          Printf.sprintf "1-2^-%d=%.3f" rounds (1.0 -. (0.5 ** float_of_int rounds));
        ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  (* The model tolerates ⌊(1/3 − ε)n⌋ corruptions, not 1/3: with the
     practical ε that is ~0.25n, so 0.30 and 0.33 already lie past it. *)
  let model_budget = Ks_core.Params.corruption_budget params in
  let part_b =
    List.map
      (fun fraction ->
        [
          Printf.sprintf "f=%.2f" fraction;
          Printf.sprintf "rounds=%d, ideal coin" (lg + 4);
          Table.fpct (success_rate ~rounds:(lg + 4) ~fraction ());
          (if Ks_attacks.budget ~params ~fraction <= model_budget then
             "within model budget"
           else "past model budget");
        ])
      [ 0.10; 0.20; 0.25; 0.30; 0.33; 0.36 ]
  in
  let part_c =
    List.map
      (fun (label, coin) ->
        [
          label;
          Printf.sprintf "f=0.25, rounds=%d" (lg + 4);
          Table.fpct (success_rate ~coin ~rounds:(lg + 4) ~fraction:0.25 ());
          "";
        ])
      [
        ("ideal coin", Ks_core.Aeba_coin.Ideal);
        ("coin missed 10%", Ks_core.Aeba_coin.Unreliable 0.1);
        ("coin missed 30%", Ks_core.Aeba_coin.Unreliable 0.3);
        ("coin leaked to adversary", Ks_core.Aeba_coin.Adversarial_known);
      ]
  in
  (* Part D — the validity boundary at sparse degree: unanimous inputs
     against the coordinated minority-echo.  Asymptotically (degree
     k·log n, k large) validity holds to 1/3; at practical degrees the
     uninformed tail erodes it earlier, and this sweep maps where. *)
  let part_d =
    List.map
      (fun fraction ->
        [
          Printf.sprintf "validity f=%.2f" fraction;
          Printf.sprintf "unanimous-0 inputs, minority echo";
          Table.fpct
            (success_rate ~offset:63 ~inputs:(Array.make n false) ~rounds:(lg + 4)
               ~fraction ());
          "erodes below 1/3 at sparse degree";
        ])
      [ 0.10; 0.15; 0.20; 0.25; 0.30 ]
  in
  let rows = part_a @ part_b @ part_c @ part_d in
  Table.print
    ~title:
      (Printf.sprintf
         "T4 (Thm 3/5): Algorithm 5 at n=%d — agreement rate (target fraction %.2f)" n
         target)
    ~headers:[ "sweep"; "setting"; "success rate"; "reference" ]
    rows;
  rows

let t5_election ?(candidates = 256) ?(trials = 200) () =
  let winners_target = Stdlib.max 2 (candidates / 32) in
  let num_bins = Ks_core.Election.num_bins ~candidates ~winners:winners_target in
  let rng = Prng.create 90210L in
  let lg = Intmath.ceil_log2 candidates in
  let run_one good_fraction =
    let good_count = int_of_float (good_fraction *. float_of_int candidates) in
    let is_good = Array.init candidates (fun i -> i < good_count) in
    Prng.shuffle rng is_good;
    let bins = Array.make candidates 0 in
    Array.iteri
      (fun i g -> if g then bins.(i) <- Prng.int rng num_bins)
      is_good;
    (* The rushing adversary sees every good bin choice, then stuffs the
       currently lightest bin just shy of overtaking the runner-up, so as
       many of its candidates as possible ride the lightest bin. *)
    let counts = Array.make num_bins 0 in
    Array.iteri (fun i g -> if g then counts.(bins.(i)) <- counts.(bins.(i)) + 1) is_good;
    let order = Array.init num_bins (fun b -> b) in
    Array.sort (fun a b -> compare counts.(a) counts.(b)) order;
    let lightest = order.(0) in
    let second = if num_bins > 1 then counts.(order.(1)) else max_int in
    let room = Stdlib.max 0 (second - counts.(lightest) - 1) in
    let placed = ref 0 in
    Array.iteri
      (fun i g ->
        if not g then begin
          if !placed < room then begin
            bins.(i) <- lightest;
            incr placed
          end
          else bins.(i) <- Prng.int rng num_bins
        end)
      is_good;
    let winners =
      Ks_core.Election.winner_indices ~num_bins ~target:winners_target bins
    in
    let goodw = Array.fold_left (fun acc i -> if is_good.(i) then acc + 1 else acc) 0 winners in
    float_of_int goodw /. float_of_int (Stdlib.max 1 (Array.length winners))
  in
  let rows =
    List.map
      (fun gf ->
        let samples = Array.init trials (fun _ -> run_one gf) in
        let bound = gf -. (1.0 /. float_of_int lg) in
        [
          Table.fpct gf;
          Table.fpct (Stats.mean samples);
          Table.fpct (Stats.percentile samples 10.0);
          Table.fpct (Stdlib.max 0.0 bound);
        ])
      [ 1.0; 0.9; 0.75; 0.67; 0.5 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T5 (Lemma 4): Feige election, r=%d candidates, %d bins, rushing bin-stuffer"
         candidates num_bins)
    ~headers:[ "good cands"; "good winners (mean)"; "p10"; "bound |S|/r - 1/log r" ]
    rows;
  rows

let t6_a2e ?(ns = [ 256; 1024 ]) ?(seeds = [ 1; 2; 3 ]) () =
  let rows =
    List.concat_map
      (fun n ->
        let params = Ks_core.Params.practical n in
        let config = Ks_core.Ae_to_e.config_of_params params in
        List.map
          (fun (label, flood) ->
            let scenario =
              if flood then Ks_attacks.flood else Ks_attacks.byzantine_static
            in
            let budget = Ks_attacks.budget_of scenario ~params in
            let runs =
              replicate ~n ~offset:555 seeds (fun seed ->
                  let rng = Prng.create seed in
                  (* Knowledgeable majority holds M = 1; a slice of good
                     processors is confused (believes 0). *)
                  let m_value = 1 in
                  let confused = Array.init n (fun _ -> Prng.bernoulli rng 0.08) in
                  let knows p = Some (if confused.(p) then 0 else m_value) in
                  let coin_rng = Prng.split rng in
                  let ks =
                    Array.init config.Ks_core.Ae_to_e.iterations (fun _ ->
                        Prng.int coin_rng config.Ks_core.Ae_to_e.labels)
                  in
                  let coin ~iteration p =
                    if iteration >= Array.length ks then None
                    else if confused.(p) then None
                    else Some ks.(iteration)
                  in
                  let strategy =
                    Ks_attacks.a2e_strategy scenario ~params ~coin ~carried:[]
                  in
                  let net =
                    Ks_sim.Net.create ~label:"a2e" ~seed ~n ~budget
                      ~msg_bits:Ks_core.Ae_to_e.msg_bits
                      ~strategy ()
                  in
                  let res = Ks_core.Ae_to_e.run ~net ~config ~knows ~coin in
                  let good p = not (Ks_sim.Net.is_corrupt net p) in
                  let all_ok = ref true and wrong = ref 0 in
                  Array.iteri
                    (fun p d ->
                      if good p then
                        match d with
                        | Some v when v = m_value -> ()
                        | Some _ -> incr wrong; all_ok := false
                        | None -> all_ok := false)
                    res.Ks_core.Ae_to_e.decided;
                  (res, !all_ok, !wrong))
            in
            let sum f = List.fold_left (fun acc run -> acc + f run) 0 runs in
            [
              Table.fint n;
              label;
              tally (fun (_, ok, _) -> ok) runs;
              Table.fint (sum (fun (_, _, w) -> w));
              Table.fbits
                (mean (fun (r, _, _) -> float_of_int r.Ks_core.Ae_to_e.max_sent_bits) runs);
              Table.fint (sum (fun (r, _, _) -> r.Ks_core.Ae_to_e.overloaded_events));
            ])
          [ ("byz-static", false); ("flood", true) ])
      ns
  in
  (* √n slope over the honest-adversary rows. *)
  Table.print
    ~title:"T6 (Lemmas 7-10): Algorithm 3 standalone"
    ~headers:[ "n"; "adversary"; "all decided M"; "wrong"; "max bits/proc"; "overloads" ]
    rows;
  rows

let t7_hiding ?(trials = 20000) () =
  let module Sh = Ks_shamir.Shamir in
  let module Zp = Ks_field.Zp in
  let rng = Prng.create 4242L in
  let holders = 9 and threshold = 4 in
  (* 16-bucket statistic keeps the sampling noise well below any real
     signal at these trial counts.  Over Z_p (p = 2^31 - 1) each residue
     mod 16 of a uniform element is within 2^-27 of uniform, so the
     low-4-bit statistic carries no field bias. *)
  let buckets = 16 in
  let tv hist0 hist1 total =
    let acc = ref 0.0 in
    for i = 0 to buckets - 1 do
      acc := !acc +. Float.abs (float_of_int (hist0.(i) - hist1.(i)))
    done;
    !acc /. (2.0 *. float_of_int total)
  in
  (* Distinguishing statistic: the XOR of the observed shares (any fixed
     function of the view lower-bounds its TV distance). *)
  let observe_direct ~count secret =
    let shares = Sh.deal rng ~threshold ~holders secret in
    let acc = ref 0 in
    for i = 0 to count - 1 do
      acc := !acc lxor Zp.to_int shares.(i).Sh.value
    done;
    !acc land 0xF
  in
  let observe_iterated ~count secret =
    (* Reshare share 0 among a second ring of holders; the adversary sees
       [count] level-1 shares (excluding share 0) plus [count] 2-shares of
       share 0 — Lemma 1's worst allowed view. *)
    let shares = Sh.deal rng ~threshold ~holders secret in
    let sub =
      Sh.deal rng ~threshold ~holders shares.(0).Sh.value
    in
    let acc = ref 0 in
    for i = 0 to count - 1 do
      acc := !acc lxor Zp.to_int shares.(i + 1).Sh.value;
      acc := !acc lxor Zp.to_int sub.(i).Sh.value
    done;
    !acc land 0xF
  in
  let advantage observe =
    let h0 = Array.make buckets 0 and h1 = Array.make buckets 0 in
    for _ = 1 to trials do
      let v0 = observe (Zp.of_int 0) in
      h0.(v0) <- h0.(v0) + 1;
      let v1 = observe (Zp.of_int 57) in
      h1.(v1) <- h1.(v1) + 1
    done;
    tv h0 h1 trials
  in
  let reconstruct_rate count =
    let ok = ref 0 in
    let secret = Zp.of_int 57 in
    for _ = 1 to 200 do
      let shares = Sh.deal rng ~threshold ~holders secret in
      let subset = Array.to_list (Array.sub shares 0 count) in
      match Sh.reconstruct ~threshold subset with
      | Some v when Zp.equal v secret -> incr ok
      | Some _ | None -> ()
    done;
    float_of_int !ok /. 200.0
  in
  let additive_adv count =
    let h0 = Array.make buckets 0 and h1 = Array.make buckets 0 in
    for _ = 1 to trials do
      let obs secret =
        let shares = Ks_shamir.Additive.deal rng ~holders:5 secret in
        let acc = ref 0 in
        for i = 0 to count - 1 do
          acc := !acc lxor Zp.to_int shares.(i)
        done;
        !acc land 0xF
      in
      let v0 = obs (Zp.of_int 0) in
      h0.(v0) <- h0.(v0) + 1;
      let v1 = obs (Zp.of_int 57) in
      h1.(v1) <- h1.(v1) + 1
    done;
    tv h0 h1 trials
  in
  let noise = 1.0 /. sqrt (float_of_int trials /. float_of_int buckets) in
  let rows =
    [
      [ "Shamir (9,5) direct"; Printf.sprintf "t=%d shares" threshold;
        Table.ffloat ~decimals:4 (advantage (observe_direct ~count:threshold));
        Printf.sprintf "sampling noise ~%.3f" noise ];
      [ "Shamir (9,5) direct"; "t+1 shares (reconstruct)";
        Table.fpct (reconstruct_rate (threshold + 1)); "should be 100%" ];
      [ "Shamir iterated (Lemma 1)"; Printf.sprintf "t 1-shares + t 2-shares";
        Table.ffloat ~decimals:4 (advantage (observe_iterated ~count:threshold));
        Printf.sprintf "sampling noise ~%.3f" noise ];
      [ "Additive 5-of-5"; "4 shares";
        Table.ffloat ~decimals:4 (additive_adv 4);
        Printf.sprintf "sampling noise ~%.3f" noise ];
      [ "Additive 5-of-5"; "5 shares (reconstruct)"; "100.0%"; "by construction" ];
    ]
  in
  Table.print ~title:"T7 (Lemma 1): hiding — distinguishing advantage of the adversary view"
    ~headers:[ "scheme"; "view"; "advantage (TV)"; "reference" ]
    rows;
  rows

let t8_samplers ?(r = 1024) ?(s = 1024) () =
  let rng = Prng.create 777L in
  let lg = Intmath.ceil_log2 s in
  let rows =
    List.map
      (fun d ->
        let sampler = Ks_sampler.Sampler.create rng ~r ~s ~d in
        let delta_at theta =
          Ks_sampler.Sampler.estimate_delta rng sampler ~theta ~trials:30
            ~set_fraction:(1.0 /. 3.0)
        in
        let maxdeg = Ks_sampler.Sampler.max_degree sampler in
        let bound = r * d / s * lg in
        [
          Table.fint d;
          Table.fpct (delta_at 0.05);
          Table.fpct (delta_at 0.10);
          Table.fpct (delta_at 0.20);
          Table.fint maxdeg;
          Printf.sprintf "O(%d)" bound;
        ])
      [ 8; 16; 32; 64; 128 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T8 (Lemma 2): sampler quality vs degree, r=s=%d, adversarial 1/3 sets" r)
    ~headers:
      [ "degree d"; "delta@theta=.05"; "delta@theta=.10"; "delta@theta=.20";
        "max degree"; "degree bound" ]
    rows;
  rows

let t9_threshold ?(n = 64) ?(seeds = [ 1; 2; 3 ]) () =
  let params = Ks_core.Params.practical n in
  let rows =
    List.map
      (fun f ->
        let runs =
          replicate ~n ~offset:999 seeds (fun seed ->
              Ks_attacks.everywhere ~fraction:f ~params ~seed
                ~inputs:(split_inputs ~n seed) Ks_attacks.byzantine_static)
        in
        [
          Table.fpct f;
          tally (fun r -> r.Ks_core.Everywhere.success) runs;
          tally (fun r -> r.Ks_core.Everywhere.safe) runs;
          Table.fpct
            (mean (fun r -> r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.agreement) runs);
          (if f < 1.0 /. 3.0 then "< 1/3" else ">= 1/3");
        ])
      [ 0.15; 0.20; 0.25; 0.30; 0.33; 0.36; 0.40 ]
  in
  Table.print
    ~title:(Printf.sprintf "T9: everywhere agreement vs corruption fraction, n=%d" n)
    ~headers:[ "corrupt"; "success"; "safe"; "ae agreement"; "regime" ]
    rows;
  rows

let t11_ablation ?(n = 64) ?(seeds = [ 1; 2; 3 ]) () =
  (* Design-choice ablations on the full stack at 25% static Byzantine
     corruption: the sharing-threshold policy (Third leaves Reed–Solomon
     slack; Half_minus_one is the paper-literal t = n/2, which turns every
     corrupted custodian into an uncorrectable error), and the
     amplification fan-out a·log n (the Chernoff margin of Lemma 8). *)
  let base = Ks_core.Params.practical n in
  let variants =
    [
      ("threshold policy = third (default)", base);
      ( "threshold policy = half (paper-literal)",
        { base with Ks_core.Params.share_policy = Ks_core.Params.Half_minus_one } );
      ( "a2e requests/label halved",
        { base with
          Ks_core.Params.a2e_requests_per_label =
            Stdlib.max 4 (base.Ks_core.Params.a2e_requests_per_label / 2) } );
      ( "election rounds halved",
        { base with
          Ks_core.Params.max_election_rounds =
            Stdlib.max 2 (base.Ks_core.Params.max_election_rounds / 2);
          Ks_core.Params.aeba_rounds =
            Stdlib.max 2 (base.Ks_core.Params.aeba_rounds / 2) } );
    ]
  in
  let rows =
    List.map
      (fun (label, params) ->
        (* Stress at 30% corruption — the margins the ablated choices buy
           only show near the threshold. *)
        let runs =
          replicate ~n ~offset:1300 seeds (fun seed ->
              Ks_attacks.everywhere ~fraction:0.30 ~params ~seed
                ~inputs:(split_inputs ~n seed) Ks_attacks.byzantine_static)
        in
        [
          label;
          tally (fun r -> r.Ks_core.Everywhere.success) runs;
          Table.fpct
            (mean (fun r -> r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.agreement) runs);
          Table.fbits
            (mean (fun r -> float_of_int r.Ks_core.Everywhere.max_sent_bits_total) runs);
        ])
      variants
  in
  Table.print
    ~title:(Printf.sprintf "T11 (ablations): design choices at n=%d, 30%% byzantine" n)
    ~headers:[ "variant"; "success"; "ae agreement"; "max bits/proc" ]
    rows;
  rows

let t12_universe ?(n = 64) ?(seeds = [ 1; 2; 3 ]) () =
  (* Universe reduction (§1.2) and the paper's core motivation (§1.3):
     the adversary corrupts half its budget up front, keeps the rest, and
     spends it on the committee the moment it is announced.  The elected
     PROCESSORS fall; the elected ARRAYS' coins keep working. *)
  let params = Ks_core.Params.practical n in
  let model_budget = Ks_core.Params.corruption_budget params in
  let upfront = model_budget / 2 in
  let reduce seed =
    let strategy =
      Ks_sim.Adversary.make ~name:"half-upfront"
        ~initial_corruptions:(fun rng ~n ~budget:_ ->
          Ks_sim.Adversary.uniform_random_set rng ~n ~budget:upfront)
        ()
    in
    Ks_core.Universe.reduce ~params ~seed ~behavior:Ks_core.Comm.Garbage ~strategy
      ~budget:model_budget ()
  in
  let rows =
    List.map2
      (fun seed r ->
        [
          Printf.sprintf "seed %d" seed;
          Table.fint (Array.length r.Ks_core.Universe.committee);
          Table.fpct r.Ks_core.Universe.good_at_election;
          Table.fpct r.Ks_core.Universe.good_after_hunt;
          Table.fpct r.Ks_core.Universe.coin_commonality;
          Table.fpct r.Ks_core.Universe.coin_distinct_rate;
        ])
      seeds
      (replicate ~n ~offset:2100 seeds reduce)
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T12 (§1.2/§1.3): universe reduction at n=%d — committee vs the \
          post-election hunt; coins opened after the hunt"
         n)
    ~headers:
      [ "run"; "committee"; "good at election"; "good after hunt";
        "coin commonality"; "coin freshness" ]
    rows;
  rows

let t13_kssv ?(n = 256) ?(seeds = [ 1; 2; 3 ]) () =
  (* The non-adaptive predecessor ([17]) electing processors in the
     clear: representative against a static adversary, dead against an
     adaptive one — §1.3's "prima facie impossible" measured as a
     protocol comparison (contrast T12, where the 2010 design's array
     elections survive the same hunt). *)
  let params = Ks_core.Params.practical n in
  let budget = Ks_core.Params.corruption_budget params in
  let rows =
    List.concat_map
      (fun adaptive ->
        List.map2
          (fun seed r ->
            [
              (if adaptive then "adaptive" else "static");
              Printf.sprintf "seed %d" seed;
              Table.fint (Array.length r.Ks_baselines.Kssv_tournament.committee);
              Table.fpct r.Ks_baselines.Kssv_tournament.good_fraction;
              Table.fint r.Ks_baselines.Kssv_tournament.corrupted_total;
              Table.fbits (float_of_int r.Ks_baselines.Kssv_tournament.max_sent_bits);
            ])
          seeds
          (replicate ~n ~offset:3100 seeds (fun seed ->
               Ks_baselines.Kssv_tournament.run ~seed ~params ~adaptive ~budget)))
      [ false; true ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T13 (§1.3): KSSV'06 processor tournament at n=%d — representative           when static, owned when adaptive" n)
    ~headers:[ "adversary"; "run"; "committee"; "good"; "corruptions"; "max bits/proc" ]
    rows;
  rows

let t14_parameters () =
  (* No simulation: the two profiles' derived parameters side by side.
     The theoretical column shows why the paper's constants need
     astronomical n before the formulas are even self-consistent
     (k1 <= n requires log^3 n <= n — fine — but q = log^8 n exceeds n
     until n is enormous). *)
  let rows =
    List.map
      (fun n ->
        let p = Ks_core.Params.practical n in
        let t = Ks_core.Params.theoretical n in
        [
          Table.fint n;
          Printf.sprintf "k1=%d q=%d d=%d" p.Ks_core.Params.k1 p.Ks_core.Params.q
            p.Ks_core.Params.up_degree;
          Printf.sprintf "k1=%d q=%d d=%d" t.Ks_core.Params.k1 t.Ks_core.Params.q
            t.Ks_core.Params.up_degree;
          (if t.Ks_core.Params.q <= n then "yes" else "q > n");
        ])
      [ 64; 1024; 65536; 1048576; 1073741824 ]
  in
  Table.print
    ~title:"T14: practical vs theoretical parameter profiles"
    ~headers:[ "n"; "practical"; "theoretical (paper formulas)"; "self-consistent" ]
    rows;
  rows

let t15_async ?(ns = [ 32; 64; 128 ]) ?(seeds = [ 1; 2; 3 ]) () =
  (* §6 open problem, explored: asynchronous binary agreement (MMR'14)
     with the common coin as an oracle — the piece a full async
     adaptation would need the tournament to supply.  Measured under an
     equivocating f = (n-2)/3 coalition and the starvation scheduler. *)
  let rows =
    List.concat_map
      (fun n ->
        let f = (n - 2) / 3 in
        List.map
          (fun (label, scheduler) ->
            let runs =
              replicate ~n ~offset:4100 seeds (fun seed ->
                  Ks_async.Async_ba.run ~seed ~n ~f ~inputs:(split_inputs ~n seed)
                    ~byz:Ks_async.Async_ba.Equivocate ~scheduler
                    ~max_events:40_000_000 ())
            in
            (* Safety: across every run, the decided values (ignoring the
               undecided) never conflict. *)
            let safe =
              List.for_all
                (fun o ->
                  let values =
                    Array.to_list o.Ks_async.Async_ba.decided
                    |> List.filter_map Fun.id
                    |> List.sort_uniq compare
                  in
                  List.length values <= 1)
                runs
            in
            [
              Table.fint n;
              label;
              tally (fun o -> o.Ks_async.Async_ba.agreement) runs;
              (if safe then "yes" else "NO");
              Table.ffloat ~decimals:1
                (mean (fun o -> float_of_int o.Ks_async.Async_ba.max_rounds) runs);
              Table.fbits
                (mean (fun o -> float_of_int o.Ks_async.Async_ba.max_sent_bits) runs);
            ])
          [ ("fair", Ks_async.Async_net.Fair);
            ("starve n/8", Ks_async.Async_net.Delay_targets (List.init (n / 8) (fun i -> i))) ])
      ns
  in
  Table.print
    ~title:
      "T15 (§6 open problem): async binary BA with a common-coin oracle,        equivocating f=(n-2)/3"
    ~headers:
      [ "n"; "scheduler"; "all decided"; "no conflict"; "rounds (mean)";
        "max bits/proc" ]
    rows;
  rows

let t16_faults ?(n = 32) ?(seeds = [ 1; 2 ]) () =
  (* Breaking-point table for the benign-fault layer (docs/FAULTS.md):
     sweep fault intensity and Byzantine corruption fraction together,
     past the 1/3 threshold, and watch how gracefully the stack degrades.
     Faults come from ambient Ks_faults plans, so every net a run creates
     (tree, a2e, rabin) draws an independent stream from one plan without
     touching the adversary's budget.  The Everywhere runs get a bounded
     re-request budget (retries=2): robust-decode failures become
     detected, bounded recovery instead of silent data loss.  The
     "bits x none" column is max bits/proc relative to the fault-free
     cell at the same corruption fraction — the measured net effect of
     the faults.  It can land below 1.0: retry rounds and duplicated
     deliveries add bits, but crashed or silenced senders and dropped
     requests also mean fewer responses to pay for. *)
  let params = Ks_core.Params.practical n in
  let plan_of s =
    match Ks_faults.Plan.of_string s with Ok p -> p | Error e -> invalid_arg e
  in
  let plans =
    [
      ("none", Ks_faults.Plan.none);
      ("drop 2%", plan_of "seed=21,drop=0.02");
      ("drop 5% dup 2%", plan_of "seed=22,drop=0.05,dup=0.02");
      ("churn 2% cap 8", plan_of "seed=23,crash=0.02,recover=0.25,max_down=8");
    ]
  in
  let fractions = [ 0.20; 0.30; 0.36 ] in
  let everywhere_run plan ~fraction seed =
    Ks_faults.Plan.with_plan plan (fun () ->
        Ks_attacks.everywhere ~fraction ~retries:2 ~params ~seed
          ~inputs:(split_inputs ~n seed) Ks_attacks.byzantine_static)
  in
  let rabin_run plan ~fraction seed =
    Ks_faults.Plan.with_plan plan (fun () ->
        Ks_attacks.rabin ~fraction ~params ~seed ~inputs:(split_inputs ~n seed)
          Ks_attacks.byzantine_static)
  in
  (* Every (plan, fraction) cell once; the fault-free row doubles as the
     bits reference for the overhead column. *)
  let cells =
    List.map
      (fun (label, plan) ->
        ( label,
          List.map
            (fun fraction ->
              let runs =
                replicate ~n ~offset:5200 seeds (everywhere_run plan ~fraction)
              in
              let rabins = replicate ~n ~offset:5300 seeds (rabin_run plan ~fraction) in
              (fraction, runs, rabins))
            fractions ))
      plans
  in
  let mean_bits =
    mean (fun r -> float_of_int r.Ks_core.Everywhere.max_sent_bits_total)
  in
  let base_bits f =
    match cells with
    | (_, fcells) :: _ ->
      let _, runs, _ = List.find (fun (f', _, _) -> f' = f) fcells in
      mean_bits runs
    | [] -> assert false
  in
  let rows =
    List.concat_map
      (fun (label, fcells) ->
        List.map
          (fun (f, runs, rabins) ->
            [
              label;
              Table.fpct f;
              tally (fun r -> r.Ks_core.Everywhere.success) runs;
              tally (fun r -> r.Ks_core.Everywhere.degraded) runs;
              Table.ffloat ~decimals:1
                (mean (fun r -> float_of_int r.Ks_core.Everywhere.retries_used) runs);
              Table.ffloat ~decimals:1
                (mean (fun r -> float_of_int r.Ks_core.Everywhere.decode_failures) runs);
              Printf.sprintf "%.2fx" (mean_bits runs /. base_bits f);
              tally (fun o -> o.Ks_baselines.Outcome.agreement) rabins;
            ])
          fcells)
      cells
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T16: breaking points under benign faults + byzantine corruption, n=%d, \
          retries=2" n)
    ~headers:
      [ "fault plan"; "corrupt"; "success"; "degraded"; "retries"; "decode fails";
        "bits x none"; "rabin agree" ]
    rows;
  rows

let t17_attacks ?(n = 32) ?(seeds = [ 1; 2 ]) () =
  (* Breaking-point table for the active-attack library (docs/ATTACKS.md):
     every {!Ks_attacks} strategy crossed with the corruption fraction —
     deliberately walking past the 1/3 threshold — and with the
     provable-misbehaviour quarantine armed and disarmed.  The attacks
     use the protocol's public randomness (tree topology, candidate
     array layout), so the targeted ones aim at the real committees;
     what keeps sub-1/3 cells honest is robust decoding plus the
     quarantine layer, which is exactly what the on/off pair isolates.
     "quarantined" counts provable-misbehaviour convictions recorded by
     good processors (always 0 with the layer disarmed).  Rabin's
     committee-less baseline runs under the same attack's vote strategy
     for scale; it is quarantine-blind, so the pair shares one value. *)
  let params = Ks_core.Params.practical n in
  (* 0.20 and 0.25 sit below the 1/3 threshold (budgets 6 and 8 of 32);
     0.36 rounds to 11/32 = 34.4%, deliberately past it. *)
  let fractions = [ 0.20; 0.25; 0.36 ] in
  let rows =
    List.concat_map
      (fun atk ->
        List.concat_map
          (fun fraction ->
            let rabins =
              replicate ~n ~offset:6300 seeds (fun seed ->
                  Ks_attacks.rabin ~fraction ~params ~seed
                    ~inputs:(split_inputs ~n seed) atk)
            in
            List.map
              (fun quarantine ->
                let runs =
                  replicate ~n ~offset:6200 seeds (fun seed ->
                      Ks_attacks.everywhere ~fraction ~retries:2 ~quarantine ~params
                        ~seed ~inputs:(split_inputs ~n seed) atk)
                in
                [
                  atk.Ks_attacks.name;
                  Table.fpct fraction;
                  (if quarantine then "on" else "off");
                  tally (fun r -> r.Ks_core.Everywhere.success) runs;
                  Table.ffloat ~decimals:0
                    (mean
                       (fun r -> float_of_int r.Ks_core.Everywhere.max_sent_bits_total)
                       runs
                    /. 1000.);
                  Table.ffloat ~decimals:0
                    (mean
                       (fun r ->
                         float_of_int
                           (r.Ks_core.Everywhere.ae_rounds
                           + r.Ks_core.Everywhere.a2e_rounds))
                       runs);
                  Table.ffloat ~decimals:1
                    (mean
                       (fun r ->
                         float_of_int
                           (Ks_core.Comm.quarantine_events
                              r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm))
                       runs);
                  tally (fun o -> o.Ks_baselines.Outcome.agreement) rabins;
                ])
              [ true; false ])
          fractions)
      (List.filter (fun e -> e.Ks_attacks.attack) Ks_attacks.all)
  in
  Table.print
    ~title:
      (Printf.sprintf
         "T17: survival under active Byzantine attacks x quarantine, n=%d, \
          retries=2" n)
    ~headers:
      [ "attack"; "corrupt"; "quarantine"; "agree"; "kbits/proc"; "rounds";
        "quarantined"; "rabin agree" ]
    rows;
  rows

let standard_monitors () =
  [
    Ks_monitor.Monitor.corruption_budget ();
    Ks_monitor.Monitor.bit_budget ();
    Ks_monitor.Monitor.round_bound ();
  ]

let monitored ?trace ~monitors name f =
  (* Shared sinks ([run_tables ?trace] reuses one across tables): the hub
     must not close what it does not own. *)
  let hub = Ks_monitor.Hub.create ?trace ~close_trace:false (monitors ()) in
  let result = Ks_monitor.Hub.with_ambient hub f in
  match Ks_monitor.Hub.finish hub with
  | [] -> result
  | vs ->
    print_string (Ks_monitor.Hub.render_violations vs);
    failwith
      (Printf.sprintf "%s: %d invariant violation(s) — see table above" name
         (List.length vs))

(* Each table once: its name, the monitors its runs are held to, and its
   quick and full configurations.  T1, T2 and T10 render the one scaling
   sweep a run collects ([pts], monitored on its own when first forced);
   the other tables ignore it. *)
type table = {
  name : string;
  monitors : (unit -> Ks_monitor.Monitor.t list) option;
  quick : scaling_point list Lazy.t -> row list;
  full : scaling_point list Lazy.t -> row list;
}

(* T16 drives deliberately faulted nets: retry rounds and duplicated
   deliveries overrun the fault-free bit and round envelopes by design.
   T17 runs deliberate attacks, several past the 1/3 threshold and all of
   them flooding crafted traffic, so the envelopes do not apply either.
   Both still hold the budget invariant: benign faults never consume the
   adversary's corruption budget, and attacks corrupt only through the
   adversary interface. *)
let budget_only () = [ Ks_monitor.Monitor.corruption_budget () ]

let tables =
  let table ?(monitors = Some standard_monitors) ?quick name full =
    { name; monitors; quick = Option.value quick ~default:full; full }
  in
  let scaling render pts = render (Lazy.force pts) in
  [
    table "t1" ~monitors:None (scaling t1_bits);
    table "t2" ~monitors:None (scaling t2_latency);
    table "t3"
      ~quick:(fun _ -> t3_ae_agreement ~ns:[ 64 ] ~seeds:[ 1 ] ())
      (fun _ -> t3_ae_agreement ());
    table "t4" ~quick:(fun _ -> t4_aeba_coins ~n:128 ~trials:4 ()) (fun _ -> t4_aeba_coins ());
    table "t5" ~quick:(fun _ -> t5_election ~trials:50 ()) (fun _ -> t5_election ());
    table "t6" ~quick:(fun _ -> t6_a2e ~ns:[ 256 ] ~seeds:[ 1 ] ()) (fun _ -> t6_a2e ());
    table "t7" ~monitors:None
      ~quick:(fun _ -> t7_hiding ~trials:4000 ())
      (fun _ -> t7_hiding ());
    table "t8" ~monitors:None (fun _ -> t8_samplers ());
    table "t9" ~quick:(fun _ -> t9_threshold ~seeds:[ 1 ] ()) (fun _ -> t9_threshold ());
    table "t10" ~monitors:None (scaling t10_crossover);
    table "t11" ~quick:(fun _ -> t11_ablation ~seeds:[ 1 ] ()) (fun _ -> t11_ablation ());
    table "t12" ~quick:(fun _ -> t12_universe ~seeds:[ 1 ] ()) (fun _ -> t12_universe ());
    table "t13" ~quick:(fun _ -> t13_kssv ~n:128 ~seeds:[ 1 ] ()) (fun _ -> t13_kssv ());
    table "t14" ~monitors:None (fun _ -> t14_parameters ());
    table "t15" ~quick:(fun _ -> t15_async ~ns:[ 32 ] ~seeds:[ 1 ] ()) (fun _ -> t15_async ());
    table "t16" ~monitors:(Some budget_only)
      ~quick:(fun _ -> t16_faults ~seeds:[ 1 ] ())
      (fun _ -> t16_faults ());
    table "t17" ~monitors:(Some budget_only)
      ~quick:(fun _ -> t17_attacks ~seeds:[ 1 ] ())
      (fun _ -> t17_attacks ());
  ]

let table_names = List.map (fun t -> t.name) tables

let run_tables ?(quick = false) ?trace names =
  let pts =
    lazy
      (monitored ?trace ~monitors:standard_monitors "scaling" (fun () ->
           if quick then collect_scaling ~ns:[ 64; 128 ] ~seeds:[ 1 ]
           else collect_scaling ~ns:[ 64; 128; 256; 512 ] ~seeds:[ 1; 2 ]))
  in
  List.iter
    (fun name ->
      match List.find_opt (fun t -> String.equal t.name name) tables with
      | None -> invalid_arg ("Experiments.run_tables: no table " ^ name)
      | Some t ->
        let run () = ignore ((if quick then t.quick else t.full) pts) in
        (match t.monitors with
         | None -> run ()
         | Some monitors -> monitored ?trace ~monitors t.name run))
    names;
  Option.iter Ks_monitor.Trace.close trace

let run_all ?quick ?trace () = run_tables ?quick ?trace table_names
