(* perfbench — the whole-system benchmark.

   One workload per process, named on the command line:

     main.exe --workload honest_n128 --seed 1 --seconds 30 --trace 0

   [--trace 0] is the end-to-end run: a closed loop with one caller runs
   agreement instances back to back, each under the invariant monitors
   users always run with, until the next instance would overrun
   [--seconds].  [--trace 1] is the per-layer run: one untraced instance,
   one instance with no monitor hub at all and one traced instance, whose
   benchmark-side monitor stamps the library's [Phase], [Run_start],
   [Round_start] and [Round_end] events with the monotonic clock and the
   [Gc] counters; then the coding kernels.  The library itself stays free
   of clocks.

   Rounds are simulated synchronously with no injected message delay, so
   every time measured is processor time.  The last line of standard
   output is one JSON object: correct, attempted, failed and the metrics
   (end-to-end with [--trace 0], per-layer with [--trace 1]).  README.md
   in this directory records why each workload exists and what each
   layer metric is predicted to move. *)

module Params = Ks_core.Params
module Attacks = Ks_workload.Attacks
module Inputs = Ks_workload.Inputs
module Prng = Ks_stdx.Prng
module Event = Ks_monitor.Event
module Hub = Ks_monitor.Hub
module Monitor = Ks_monitor.Monitor

(* ---- Clock, GC counters, statistics ---- *)

let now = Monotonic_clock.now
let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* Words allocated so far: minor-heap words (exact) plus words allocated
   directly in the major heap (large arrays never pass the minor heap). *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "median: no samples"
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* ---- Workloads ---- *)

type protocol = Everywhere | Rabin

type workload = {
  name : string;
  n : int;
  protocol : protocol;
  scenario : Attacks.t;
}

(* Why each exists is written down in README.md. *)
let workloads =
  [
    { name = "honest_n128"; n = 128; protocol = Everywhere; scenario = Attacks.honest };
    { name = "byz_static_n64"; n = 64; protocol = Everywhere;
      scenario = Attacks.byzantine_static };
    { name = "rabin_n512"; n = 512; protocol = Rabin; scenario = Attacks.byzantine_static };
  ]

(* What one agreement instance reports back, besides the monitor events. *)
type outcome = {
  agreed : bool;  (** agreement and safety (or validity) held *)
  rounds : int;
  max_bits : int;  (** max bits sent by a good processor, all phases *)
  decode_failures : int;
  retries_used : int;
  quarantine_events : int;
  quorum_shortfalls : int;
}

type instance = { inputs : bool array; run : unit -> outcome }

(* The benchmark's seed draws the processors' input bits: the balanced
   split (the adversarial worst case), at positions shuffled by the seed.
   The protocol's own randomness (tree, private coins, which processors
   the adversary takes) comes from this fixed seed, the CLI default of
   ba_sim.  Across seeds the program then does the same work on different
   inputs, so the spread between runs measures the program and not the
   luck of a tree. *)
let protocol_seed = 42L

(* The one adapter from a workload and a seed to the program's inputs and
   strategies.  Everything the benchmark knows about how the protocols
   take their adversaries lives here, so a change to those signatures
   touches this function only. *)
let prepare w ~n ~seed =
  let params = Params.practical n in
  let rng = Prng.create (Int64.of_int seed) in
  let inputs = Inputs.generate rng ~n Inputs.Split in
  Prng.shuffle rng inputs;
  let seed = protocol_seed in
  let budget = Attacks.budget_of w.scenario ~params in
  match w.protocol with
  | Everywhere ->
    let tree = Ks_topology.Tree.build (Prng.create seed) (Params.tree_config params) in
    let tree_strategy = Attacks.tree_strategy w.scenario ~params ~tree in
    let run () =
      let r =
        Ks_core.Everywhere.run ~params ~seed ~inputs ~behavior:w.scenario.Attacks.behavior
          ~tree_strategy
          ~a2e_strategy:(fun ~carried ~coin ->
            Attacks.a2e_strategy w.scenario ~params ~coin ~carried)
          ~budget ()
      in
      let comm = r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm in
      {
        agreed = r.Ks_core.Everywhere.success && r.Ks_core.Everywhere.safe;
        rounds = r.Ks_core.Everywhere.ae_rounds + r.Ks_core.Everywhere.a2e_rounds;
        max_bits = r.Ks_core.Everywhere.max_sent_bits_total;
        decode_failures = r.Ks_core.Everywhere.decode_failures;
        retries_used = r.Ks_core.Everywhere.retries_used;
        quarantine_events = Ks_core.Comm.quarantine_events comm;
        quorum_shortfalls = r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.quorum_shortfalls;
      }
    in
    { inputs; run }
  | Rabin ->
    let strategy = Attacks.vote_flipper w.scenario ~params in
    let rounds = (2 * Ks_stdx.Intmath.ceil_log2 n) + 6 in
    let run () =
      let o =
        Ks_baselines.Rabin.run ~seed ~n ~budget ~rounds ~epsilon:params.Params.epsilon
          ~inputs ~strategy
      in
      {
        agreed = o.Ks_baselines.Outcome.agreement && o.Ks_baselines.Outcome.validity;
        rounds = o.Ks_baselines.Outcome.rounds;
        max_bits = o.Ks_baselines.Outcome.max_sent_bits;
        decode_failures = 0;
        retries_used = 0;
        quarantine_events = 0;
        quorum_shortfalls = 0;
      }
    in
    { inputs; run }

(* The monitors every user-facing run executes under (as in ba_sim). *)
let user_monitors inputs =
  Ks_workload.Experiments.standard_monitors ()
  @ [ Monitor.agreement (); Monitor.validity ~inputs:(Array.map Bool.to_int inputs) ]

(* ---- Output digest ----

   Every good processor's decision, every processor's metered sent bits
   on each net and each net's round count, in a canonical order.  Status
   flags such as [degraded] and the failure counters are deliberately
   left out: their definitions may change while the outputs must not. *)
let digest_monitor () =
  let labels = Hashtbl.create 4
  and rounds = Hashtbl.create 4
  and decisions = Hashtbl.create 256
  and sent = Hashtbl.create 256 in
  let on_event ~emit:_ = function
    | Event.Run_start { net; label; _ } -> Hashtbl.replace labels net label
    | Event.Run_end { net; rounds = r; _ } -> Hashtbl.replace rounds net r
    | Event.Decide { net; proc; value } -> Hashtbl.replace decisions (net, proc) value
    | Event.Meter_proc { net; proc; sent_bits; _ } ->
      (* re-emitted snapshots: the last one is authoritative *)
      Hashtbl.replace sent (net, proc) sent_bits
    | _ -> ()
  in
  let digest () =
    let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
    let b = Buffer.create 65536 in
    List.iter
      (fun (net, label) ->
        Printf.bprintf b "net %d %s rounds %d\n" net label
          (Option.value ~default:(-1) (Hashtbl.find_opt rounds net)))
      (sorted labels);
    List.iter (fun ((net, p), v) -> Printf.bprintf b "decide %d %d %d\n" net p v)
      (sorted decisions);
    List.iter (fun ((net, p), v) -> Printf.bprintf b "sent %d %d %d\n" net p v) (sorted sent);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  (Monitor.make ~name:"perfbench.digest" ~on_event (), digest)

(* ---- Per-layer timing monitor (traced runs only) ---- *)

type net_stats = {
  mutable exchange_ns : int64;
  mutable net_rounds : int;
  mutable msgs : int;
  mutable adv_msgs : int;
  mutable bits : int;
}

type layers = {
  net_labels : (int, string) Hashtbl.t;
  nets : (string, net_stats) Hashtbl.t;
  phase_s : (string, float) Hashtbl.t;
  phase_words : (string, float) Hashtbl.t;
  mutable phase : (string * int64 * float) option;  (** name, start, words *)
  mutable round_start : int64;
  mutable tree_tournament_ns : int64;
  mutable burst : (int64 * int64) option;
      (** open run of tree rounds inside the amplify phase: first start,
          last end *)
  mutable coin_open_ns : int64;
}

let new_layers () =
  {
    net_labels = Hashtbl.create 4;
    nets = Hashtbl.create 4;
    phase_s = Hashtbl.create 2;
    phase_words = Hashtbl.create 2;
    phase = None;
    round_start = 0L;
    tree_tournament_ns = 0L;
    burst = None;
    coin_open_ns = 0L;
  }

let net_stats l label =
  match Hashtbl.find_opt l.nets label with
  | Some s -> s
  | None ->
    let s = { exchange_ns = 0L; net_rounds = 0; msgs = 0; adv_msgs = 0; bits = 0 } in
    Hashtbl.replace l.nets label s;
    s

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let close_burst l =
  match l.burst with
  | Some (a, b) ->
    l.coin_open_ns <- Int64.add l.coin_open_ns (Int64.sub b a);
    l.burst <- None
  | None -> ()

let close_phase l ~at ~w =
  (match l.phase with
   | Some (name, t0, w0) ->
     add l.phase_s name (secs t0 at);
     add l.phase_words name (w -. w0)
   | None -> ());
  l.phase <- None

let in_phase l name = match l.phase with Some (p, _, _) -> p = name | None -> false
let label_of l net = Option.value ~default:"?" (Hashtbl.find_opt l.net_labels net)

(* Everywhere's phases are its "tournament" and "amplify" markers.  The
   amplify phase opens §3.5 coins lazily on the tree net: each run of
   consecutive tree rounds there, from the first round's start to the
   last round's end, counts as coin-open time. *)
let layers_monitor l =
  let on_event ~emit:_ = function
    | Event.Phase { name } ->
      let at = now () and w = words () in
      close_burst l;
      close_phase l ~at ~w;
      l.phase <- Some (name, at, w)
    | Event.Run_start { net; label; _ } -> Hashtbl.replace l.net_labels net label
    | Event.Round_start { net; _ } ->
      let at = now () in
      l.round_start <- at;
      (match label_of l net with
       | "tree" when in_phase l "amplify" && l.burst = None -> l.burst <- Some (at, at)
       | "a2e" -> close_burst l
       | _ -> ())
    | Event.Round_end { net; msgs; bits; adv_msgs; _ } ->
      let at = now () in
      let dt = Int64.sub at l.round_start in
      let label = label_of l net in
      let s = net_stats l label in
      s.exchange_ns <- Int64.add s.exchange_ns dt;
      s.net_rounds <- s.net_rounds + 1;
      s.msgs <- s.msgs + msgs;
      s.adv_msgs <- s.adv_msgs + adv_msgs;
      s.bits <- s.bits + bits;
      if label = "tree" then begin
        if in_phase l "tournament" then
          l.tree_tournament_ns <- Int64.add l.tree_tournament_ns dt;
        match l.burst with Some (a, _) -> l.burst <- Some (a, at) | None -> ()
      end
    | _ -> ()
  in
  Monitor.make ~name:"perfbench.layers" ~on_event ()

(* ---- One timed agreement instance ---- *)

type mode = Unmonitored | Monitored | Traced

type sample = {
  wall_s : float;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;  (** process-wide peak, read after the instance *)
  outcome : outcome;
  violations : string list;  (** invariant names *)
  digest : string option;
  layers : layers option;
}

let run_instance inst mode =
  let hub, digest, layers =
    match mode with
    | Unmonitored -> (None, None, None)
    | Monitored | Traced ->
      let dmon, digest = digest_monitor () in
      let layers = if mode = Traced then Some (new_layers ()) else None in
      let extra = match layers with Some l -> [ layers_monitor l ] | None -> [] in
      (Some (Hub.create (extra @ user_monitors inst.inputs @ [ dmon ])), Some digest, layers)
  in
  (* Start every instance from a collected heap, so that none pays for
     sweeping the previous instance's garbage. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let w0 = words () in
  let t0 = now () in
  let outcome, violations =
    match hub with
    | None -> (inst.run (), [])
    | Some h ->
      let o = Hub.with_ambient h inst.run in
      (o, List.map (fun v -> v.Monitor.invariant) (Hub.finish h))
  in
  let t1 = now () in
  let w1 = words () in
  let g1 = Gc.quick_stat () in
  Option.iter (fun l -> close_burst l; close_phase l ~at:t1 ~w:w1) layers;
  {
    wall_s = secs t0 t1;
    alloc_words = w1 -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
    outcome;
    violations;
    digest = Option.map (fun d -> d ()) digest;
    layers;
  }

(* ---- Recorded digests ---- *)

(* Lines "workload n seed digest"; '#' starts a comment. *)
let load_digests path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> close_in ic; List.rev acc
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; n; s; d ] when String.length w > 0 && w.[0] <> '#' ->
          go (((w, int_of_string n, int_of_string s), d) :: acc)
        | _ -> go acc)
    in
    go []
  end

(* A sample fails when the run gave no agreement or was unsafe, recorded
   any monitor violation, or its digest differs from the recorded one or
   from the first digest this process saw. *)
let failures ~expected s =
  let digest_ok =
    match (s.digest, expected) with
    | Some d, Some e -> d = e
    | None, _ | _, None -> true
  in
  (if s.outcome.agreed then [] else [ "no agreement or unsafe" ])
  @ List.map (Printf.sprintf "monitor violation: %s") (List.sort_uniq compare s.violations)
  @ if digest_ok then [] else [ "output digest mismatch" ]

(* ---- Set-up time ---- *)

(* Set-up is everything from process start to the first timed run:
   runtime and module initialisation, reading the recorded digests,
   building inputs, strategies and the monitor hub.  It is timed from
   outside, as fresh child processes that stop there. *)
let setup_children = 11

let measure_setup argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args = Array.append [| Sys.executable_name; "--setup-only" |] argv in
  let one () =
    let t0 = now () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin devnull Unix.stderr in
    let _, status = Unix.waitpid [] pid in
    let t1 = now () in
    if status <> Unix.WEXITED 0 then failwith "set-up child failed";
    secs t0 t1
  in
  let xs = List.init setup_children (fun _ -> one ()) in
  Unix.close devnull;
  median xs

(* ---- Coding kernels ---- *)

module Zp = Ks_field.Zp
module Sh = Ks_shamir.Shamir.Make (Ks_field.Zp)

(* Each kernel is (name, f): [f ()] runs the public function once at a
   protocol shape and says whether its output is right. *)
let zp_mul_256 () =
  let rng = Prng.create 11L in
  let xs = Array.init 256 (fun _ -> Zp.random_nonzero rng) in
  let reference = Array.fold_left (fun acc x -> acc * x mod Zp.p) 1 xs in
  fun () ->
    let acc = ref Zp.one in
    for i = 0 to 255 do
      acc := Zp.mul !acc xs.(i)
    done;
    Zp.to_int !acc = reference

(* Vector decode, the sendDown hot path: 32-word vectors dealt to the
   leaf-size holder set, two holders wholly corrupted and one word of a
   third, so the probe decode and a per-word fallback both run. *)
let vectors32 ~n () =
  let params = Params.practical n in
  let holders = params.Params.k1 in
  let threshold = Params.share_threshold params ~holders in
  let rng = Prng.create (Int64.of_int (1000 + n)) in
  let words = Array.init 32 (fun _ -> Zp.random rng) in
  let xs = Array.init holders Fun.id in
  let per_holder = Sh.deal_vector_at rng ~threshold ~xs words in
  per_holder.(0) <- Array.map (fun _ -> Zp.random rng) per_holder.(0);
  per_holder.(1) <- Array.map (fun _ -> Zp.random rng) per_holder.(1);
  per_holder.(2).(17) <- Zp.random rng;
  let shares = List.init holders (fun h -> (xs.(h), per_holder.(h))) in
  fun () ->
    match Sh.reconstruct_vectors ~threshold shares with
    | Some v -> v = words
    | None -> false

(* Robust word decode with [errors_of ~radius] corrupted shares. *)
let robust ~n ~errors_of () =
  let params = Params.practical n in
  let holders = params.Params.k1 in
  let threshold = Params.share_threshold params ~holders in
  let rng = Prng.create (Int64.of_int (2000 + n)) in
  let secret = Zp.random rng in
  let shares = Sh.deal rng ~threshold ~holders secret in
  let errors = errors_of ~radius:((holders - threshold - 1) / 2) in
  Array.iter
    (fun i -> shares.(i) <- { (shares.(i)) with Sh.value = Zp.add shares.(i).Sh.value Zp.one })
    (Prng.sample_without_replacement rng ~n:holders ~k:errors);
  let shares = Array.to_list shares in
  fun () -> Sh.reconstruct_robust ~threshold shares = Some secret

let kernels () =
  [
    ("shamir.vectors32_n64", vectors32 ~n:64 ());
    ("shamir.vectors32_n128", vectors32 ~n:128 ());
    ("shamir.robust_radius_n64", robust ~n:64 ~errors_of:(fun ~radius -> radius) ());
    ( "shamir.robust_scatter_n64",
      robust ~n:64 ~errors_of:(fun ~radius -> Stdlib.max 1 (radius - 1)) () );
    ("field.zp_mul_256", zp_mul_256 ());
  ]

(* Median over batches of ~20 ms; allocation is read from the GC counters
   around each batch. *)
let time_kernel f =
  let batch iters =
    let w0 = words () in
    let t0 = now () in
    let ok = ref true in
    for _ = 1 to iters do
      if not (Sys.opaque_identity (f ())) then ok := false
    done;
    let t1 = now () in
    let w1 = words () in
    (!ok, secs t0 t1, w1 -. w0)
  in
  let rec calibrate iters =
    let _, dt, _ = batch iters in
    if dt >= 0.02 || iters >= 1 lsl 24 then iters else calibrate (iters * 2)
  in
  let iters = calibrate 1 in
  let runs = List.init 9 (fun _ -> batch iters) in
  let per x = x /. float_of_int iters in
  ( List.for_all (fun (ok, _, _) -> ok) runs,
    median (List.map (fun (_, dt, _) -> per (dt *. 1e9)) runs),
    median (List.map (fun (_, _, w) -> per w) runs) )

(* ---- Metrics output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-30s %16s %s\n" name (json_number v) unit)
    metrics;
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let report_failures label fs =
  List.iter (fun f -> Printf.printf "FAILED %s: %s\n" label f) fs;
  fs <> []

(* ---- The two modes ---- *)

let mwords w = w /. 1e6

(* End-to-end: a closed loop of monitored instances.  Counts are taken
   from the first instance (they repeat exactly at a fixed seed), times
   are medians over all of them. *)
let timed w ~n ~seed ~seconds ~expected ~setup_s =
  let start = now () in
  let rec loop acc =
    let s = run_instance (prepare w ~n ~seed) Monitored in
    let acc = s :: acc in
    let walls = List.map (fun s -> s.wall_s) acc in
    if secs start (now ()) +. median walls > seconds then List.rev acc else loop acc
  in
  let samples = loop [] in
  let first = List.hd samples in
  (* every instance must reproduce the first one's digest *)
  let expected = match expected with Some _ -> expected | None -> first.digest in
  let failed =
    List.length
      (List.filter (fun s -> report_failures w.name (failures ~expected s)) samples)
  in
  let k = List.length samples in
  let walls = List.map (fun s -> s.wall_s) samples in
  Printf.printf "workload %s: n=%d seed=%d, %d instance(s) in a closed loop\n" w.name n seed k;
  Printf.printf "  digest %s\n" (Option.value ~default:"-" first.digest);
  List.iteri
    (fun i s -> Printf.printf "  instance %d: wall %.6f s\n" i s.wall_s)
    samples;
  Printf.printf "  wall_s: median of %d sample(s); %s\n" k
    (if k < 11 then "no percentile has >= 10 samples beyond it"
     else
       let sorted = Array.of_list (List.sort Float.compare walls) in
       let p = 100 * (k - 10) / k in
       Printf.sprintf "p%d = %.6f s" p sorted.((k * p / 100) - 1));
  Printf.printf "  failed_frac %d/%d\n" failed k;
  print_result ~correct:(failed = 0) ~attempted:k ~failed
    [
      ("wall_s", median walls, "s");
      ("setup_s", setup_s, "s");
      ("alloc_mwords", mwords first.alloc_words, "Mwords");
      ( "peak_heap_mb",
        float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6,
        "MB" );
      ("max_bits_per_proc", float_of_int first.outcome.max_bits, "bit");
      ("rounds", float_of_int first.outcome.rounds, "count");
    ]

let net_metric l label f = match Hashtbl.find_opt l.nets label with Some s -> f s | None -> 0.
let ns_s ns = Int64.to_float ns *. 1e-9

(* Per-layer: untraced, unmonitored and traced instances of the same
   input, then the kernels. *)
let traced w ~n ~seed ~expected =
  let untraced = run_instance (prepare w ~n ~seed) Monitored in
  let bare = run_instance (prepare w ~n ~seed) Unmonitored in
  let tr = run_instance (prepare w ~n ~seed) Traced in
  let expected = match expected with Some _ -> expected | None -> untraced.digest in
  let bare_fails =
    failures ~expected:None bare
    @
    if bare.outcome.rounds = untraced.outcome.rounds
       && bare.outcome.max_bits = untraced.outcome.max_bits
    then []
    else [ "unmonitored run differs from monitored run" ]
  in
  let fails =
    [ failures ~expected untraced; bare_fails; failures ~expected tr ]
    |> List.map (report_failures w.name)
  in
  let ks =
    List.map
      (fun (name, f) ->
        let ok, ns, wds = time_kernel f in
        if not ok then Printf.printf "FAILED kernel %s: wrong output\n" name;
        (name, ok, ns, wds))
      (kernels ())
  in
  let l = Option.get tr.layers in
  let phase tbl p = Option.value ~default:0. (Hashtbl.find_opt tbl p) in
  let tournament_s = phase l.phase_s "tournament" and amplify_s = phase l.phase_s "amplify" in
  let ex label = net_metric l label (fun s -> ns_s s.exchange_ns) in
  let count label f = net_metric l label (fun s -> float_of_int (f s)) in
  let all_msgs = Hashtbl.fold (fun _ s acc -> acc + s.msgs + s.adv_msgs) l.nets 0 in
  let all_ex = Hashtbl.fold (fun _ s acc -> Int64.add acc s.exchange_ns) l.nets 0L in
  let coin_open_s = ns_s l.coin_open_ns in
  let o = tr.outcome in
  let everywhere = w.protocol = Everywhere in
  Printf.printf "workload %s: n=%d seed=%d, per-layer run\n" w.name n seed;
  Printf.printf "  wall: untraced %.6f s, unmonitored %.6f s, traced %.6f s\n" untraced.wall_s
    bare.wall_s tr.wall_s;
  if everywhere then
    Printf.printf "  tournament_s + amplify_s = %.6f s (%.2f%% of the traced wall)\n"
      (tournament_s +. amplify_s)
      (100. *. (tournament_s +. amplify_s) /. tr.wall_s);
  Hashtbl.iter
    (fun label s ->
      Printf.printf "  net %-6s rounds=%d msgs=%d adv=%d exchange=%.6f s\n" label s.net_rounds
        s.msgs s.adv_msgs (ns_s s.exchange_ns))
    l.nets;
  let failed = List.length (List.filter Fun.id fails) in
  let kernels_ok = List.for_all (fun (_, ok, _, _) -> ok) ks in
  print_result ~correct:(failed = 0 && kernels_ok) ~attempted:(List.length fails) ~failed
    ([
       ("everywhere.tournament_s", tournament_s, "s");
       ("everywhere.amplify_s", amplify_s, "s");
       ("everywhere.tournament_mwords", mwords (phase l.phase_words "tournament"), "Mwords");
       ("everywhere.amplify_mwords", mwords (phase l.phase_words "amplify"), "Mwords");
       ("net.tree.exchange_s", ex "tree", "s");
       ("net.tree.rounds", count "tree" (fun s -> s.net_rounds), "count");
       ("net.tree.msgs", count "tree" (fun s -> s.msgs), "count");
       ("net.tree.adv_msgs", count "tree" (fun s -> s.adv_msgs), "count");
       ("net.tree.mbits", count "tree" (fun s -> s.bits) /. 1e6, "Mbit");
       ("net.a2e.exchange_s", ex "a2e", "s");
       ("net.a2e.msgs", count "a2e" (fun s -> s.msgs), "count");
       ("net.rabin.exchange_s", ex "rabin", "s");
       ("net.rabin.msgs", count "rabin" (fun s -> s.msgs), "count");
       ("net.rabin.adv_msgs", count "rabin" (fun s -> s.adv_msgs), "count");
       ( "net.exchange_ns_per_msg",
         (if all_msgs = 0 then 0. else Int64.to_float all_ex /. float_of_int all_msgs),
         "ns" );
       ( "comm.tree_compute_s",
         (if everywhere then tournament_s -. ns_s l.tree_tournament_ns else 0.),
         "s" );
       ("comm.coin_open_s", coin_open_s, "s");
       ("comm.decode_failures", float_of_int o.decode_failures, "count");
       ("comm.retries_used", float_of_int o.retries_used, "count");
       ("comm.quarantine_events", float_of_int o.quarantine_events, "count");
       ("ae_ba.quorum_shortfalls", float_of_int o.quorum_shortfalls, "count");
       ( "a2e.compute_s",
         (if everywhere then amplify_s -. coin_open_s -. ex "a2e" else 0.),
         "s" );
     ]
    @ List.concat_map
        (fun (name, _, ns, wds) -> [ (name ^ "_ns", ns, "ns"); (name ^ "_words", wds, "words") ])
        ks
    @ [
        ("monitor.hub_overhead_s", untraced.wall_s -. bare.wall_s, "s");
        ("rabin.compute_s", (if everywhere then 0. else tr.wall_s -. ex "rabin"), "s");
        ("gc.minor_collections", float_of_int tr.minor_gcs, "count");
        ("gc.major_collections", float_of_int tr.major_gcs, "count");
        ("trace.overhead_s", tr.wall_s -. untraced.wall_s, "s");
      ])

(* ---- Command line ---- *)

let usage () =
  prerr_string
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \                [--n N] [--expect-digest HEX]\n\
     workloads: ";
  prerr_endline (String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let n = ref None and expect = ref None in
  let setup_only = ref false in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_int (int_arg v)); parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--n" :: v :: rest -> n := Some (int_arg v); parse rest
    | "--expect-digest" :: v :: rest -> expect := Some v; parse rest
    | _ -> usage ()
  in
  parse (Array.to_list argv);
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace -> (
    match List.find_opt (fun w -> w.name = name) workloads with
    | None -> usage ()
    | Some w ->
      let n = Option.value ~default:w.n !n in
      let expected =
        match !expect with
        | Some _ as e -> e
        | None -> List.assoc_opt (w.name, n, seed) (load_digests "perfbench/digests.txt")
      in
      let inst = prepare w ~n ~seed in
      let hub = Hub.create (user_monitors inst.inputs) in
      if !setup_only then ignore (Sys.opaque_identity hub)
      else begin
        Printf.printf "recorded digest: %s\n" (Option.value ~default:"none" expected);
        if trace then traced w ~n ~seed ~expected
        else timed w ~n ~seed ~seconds ~expected ~setup_s:(measure_setup argv)
      end)
  | _ -> usage ()
