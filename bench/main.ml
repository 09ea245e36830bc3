(* Benchmark harness for the King–Saia reproduction.

   Modes:
   - no arguments / [--quick]: regenerate every experiment table of
     EXPERIMENTS.md (T1–T17) by running the full protocol stack, the
     baselines and the substrate measurements.
   - [--table tN]: regenerate a single table, at its full configuration
     and under its monitors.
   - [--json FILE]: coding-kernel micro-benchmarks (field mul, Lagrange
     evaluation, robust Reed–Solomon decoding at protocol sizes), written
     as machine-readable JSON (schema ks-bench/1) so the perf trajectory
     is a tracked artifact — see docs/PERF.md.  [--baseline FILE]
     additionally prints a speedup-vs-baseline table and flags kernels
     that regressed more than 2x after machine-speed normalisation
     ([--enforce-baseline] turns the flag into a non-zero exit). *)

module Experiments = Ks_workload.Experiments
module Params = Ks_core.Params
module Prng = Ks_stdx.Prng

(* --- Coding-kernel micro-benchmarks with machine-readable output. ---

   Each kernel is a pure decode/arithmetic hot path with deterministic,
   pre-built inputs (the PRNG seeds are fixed, so every run measures the
   same work).  Sizes n in {64, 128, 256} derive holder counts and
   thresholds exactly as the protocol does ([Params.practical]). *)

module Kernels = struct
  module Zp = Ks_field.Zp
  module Poly = Ks_field.Poly
  module Shamir = Ks_shamir.Shamir

  let protocol_sizes = [ 64; 128; 256 ]

  let mul_zp =
    let rng = Prng.create 101L in
    let xs = Array.init 256 (fun _ -> Zp.random_nonzero rng) in
    fun () ->
      let acc = ref Zp.one in
      for i = 0 to 255 do
        acc := Zp.mul !acc xs.(i)
      done;
      ignore (Sys.opaque_identity !acc)

  let lagrange_eval =
    let rng = Prng.create 103L in
    let pts = List.init 12 (fun i -> (Zp.of_int (i + 1), Zp.random rng)) in
    let xs = Array.init 16 (fun i -> Zp.of_int (100 + i)) in
    fun () ->
      let acc = ref Zp.zero in
      Array.iter (fun x -> acc := Zp.add !acc (Poly.lagrange_eval pts x)) xs;
      ignore (Sys.opaque_identity !acc)

  let interp_zero =
    let rng = Prng.create 104L in
    let shares = Shamir.deal rng ~threshold:5 ~holders:12 (Zp.of_int 4242) in
    let shares = Array.to_list shares in
    fun () -> ignore (Sys.opaque_identity (Shamir.reconstruct ~threshold:5 shares))

  (* Robust word decode at protocol sizes: holders = k1(n), protocol
     threshold, [errors_of ~radius] corrupted shares. *)
  let robust_case ~n ~errors_of =
    let params = Params.practical n in
    let holders = params.Params.k1 in
    let threshold = Params.share_threshold params ~holders in
    let rng = Prng.create (Int64.of_int (7700 + n)) in
    let secret = Zp.random rng in
    let shares = Shamir.deal rng ~threshold ~holders secret in
    let radius = (holders - threshold - 1) / 2 in
    let errors = errors_of ~radius in
    let idx = Prng.sample_without_replacement rng ~n:holders ~k:errors in
    Array.iter
      (fun i -> shares.(i) <- { shares.(i) with Shamir.value = Zp.random rng })
      idx;
    let shares = Array.to_list shares in
    fun () ->
      ignore (Sys.opaque_identity (Shamir.reconstruct_robust ~threshold shares))

  (* A failing decode of the tournament's common shape: m = 16 shares at
     threshold 5 (k = 6), ten of them garbage.  The six honest shares
     are too few to carry a codeword (k + 1 supporters are required), so
     every window is scored, the unique decoder runs, and the answer is
     None — the case behind most decode time in a Byzantine run. *)
  let robust_fail =
    let rng = Prng.create 7716L in
    let threshold = 5 and holders = 16 in
    let shares = Shamir.deal rng ~threshold ~holders (Zp.random rng) in
    let idx = Prng.sample_without_replacement rng ~n:holders ~k:10 in
    Array.iter
      (fun i -> shares.(i) <- { shares.(i) with Shamir.value = Zp.random rng })
      idx;
    let shares = Array.to_list shares in
    fun () ->
      ignore (Sys.opaque_identity (Shamir.reconstruct_robust ~threshold shares))

  (* Vector decode (the sendDown hot path): 32-word vectors, two wholly
     corrupted holders plus one word-targeted lie, which forces the probe
     decode and at least one per-word fallback. *)
  let vectors_case ~n =
    let params = Params.practical n in
    let holders = params.Params.k1 in
    let threshold = Params.share_threshold params ~holders in
    let rng = Prng.create (Int64.of_int (8800 + n)) in
    let words = Array.init 32 (fun _ -> Zp.random rng) in
    let xs = Array.init holders (fun i -> i) in
    let per_holder = Shamir.deal_vector_at rng ~threshold ~xs words in
    for h = 0 to 1 do
      per_holder.(h) <- Array.map (fun _ -> Zp.random rng) per_holder.(h)
    done;
    per_holder.(2).(17) <- Zp.random rng;
    let holders_l = List.init holders (fun h -> (xs.(h), per_holder.(h))) in
    fun () ->
      ignore
        (Sys.opaque_identity (Shamir.reconstruct_vectors ~threshold holders_l))

  let all () =
    [
      ("field/zp_mul_256", mul_zp);
      ("poly/lagrange_eval_k12_x16", lagrange_eval);
      ("shamir/interp_zero_m12_t5", interp_zero);
      ("shamir/robust_fail_m16_k6", robust_fail);
    ]
    @ List.concat_map
        (fun n ->
          [
            ( Printf.sprintf "shamir/robust_scatter_n%d" n,
              robust_case ~n ~errors_of:(fun ~radius -> Stdlib.max 1 (radius - 1)) );
            ( Printf.sprintf "shamir/robust_radius_n%d" n,
              robust_case ~n ~errors_of:(fun ~radius -> radius) );
            (Printf.sprintf "shamir/vectors32_n%d" n, vectors_case ~n);
          ])
        protocol_sizes
end

type kernel_result = { name : string; ns_per_op : float; words_per_op : float }

(* Minor-heap words per call, counted over a batch of calls.  The kernels
   are deterministic, so the count is exact and repeats run to run. *)
let words_per_call fn =
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    fn ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let measure_kernels ~quick =
  let open Bechamel in
  let open Toolkit in
  let quota = if quick then 0.5 else 2.0 in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~kde:None () in
  let analysis = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  List.map
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let elt = List.hd (Test.elements test) in
      let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
      let ns_per_op =
        match Analyze.OLS.estimates (Analyze.one analysis Instance.monotonic_clock raw) with
        | Some (v :: _) -> v
        | Some [] | None -> Float.nan
      in
      let r = { name; ns_per_op; words_per_op = words_per_call fn } in
      Printf.printf "%-32s %12.0f ns/op %12.0f w/op\n%!" r.name r.ns_per_op
        r.words_per_op;
      r)
    (Kernels.all ())

let write_json path results =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"ks-bench/1\",\n  \"kernels\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_op\": %.2f, \"words_per_op\": %.2f}%s\n"
        r.name r.ns_per_op r.words_per_op
        (if i = last then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* Minimal parser for the flat ks-bench/1 schema this binary writes: scan
   "name" / "ns_per_op" field pairs.  Kernel names contain no escapes. *)
let parse_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let find_from needle i =
    let nn = String.length needle and nt = String.length text in
    let rec go i =
      if i + nn > nt then None
      else if String.sub text i nn = needle then Some (i + nn)
      else go (i + 1)
    in
    go i
  in
  let rec scan i acc =
    match find_from "\"name\": \"" i with
    | None -> List.rev acc
    | Some j ->
      let close = String.index_from text j '"' in
      let name = String.sub text j (close - j) in
      (match find_from "\"ns_per_op\": " close with
       | None -> failwith "parse_baseline: missing ns_per_op"
       | Some k ->
         let stop = ref k in
         while
           !stop < String.length text
           && (match text.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
         do
           incr stop
         done;
         let ns = float_of_string (String.sub text k (!stop - k)) in
         scan !stop ((name, ns) :: acc))
  in
  match find_from "ks-bench/1" 0 with
  | None -> failwith (path ^ ": not a ks-bench/1 file")
  | Some _ -> scan 0 []

(* Speedup table plus a regression gate.  Raw ratios confound machine
   speed with code changes when the baseline was recorded elsewhere, so
   the gate normalises by the median ratio: a uniformly slower machine
   moves every ratio equally and trips nothing, while a single kernel
   regressing > 2x relative to its peers is flagged.  A kernel must also
   be absolutely slower than its baseline to flag — when most kernels
   just got faster, the ones left unchanged are not regressions. *)
let compare_baseline ~enforce results baseline =
  let rows =
    List.filter_map
      (fun r ->
        match List.assoc_opt r.name baseline with
        | Some base when base > 0.0 && Float.is_finite r.ns_per_op ->
          Some (r.name, base, r.ns_per_op, r.ns_per_op /. base)
        | Some _ | None -> None)
      results
  in
  if rows = [] then begin
    prerr_endline "bench: baseline shares no kernels with this run";
    exit 2
  end;
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let m = median (List.map (fun (_, _, _, r) -> r) rows) in
  Printf.printf "\n%-32s %14s %14s %9s\n" "kernel" "baseline" "current" "speedup";
  List.iter
    (fun (name, base, now, _) ->
      Printf.printf "%-32s %11.0f ns %11.0f ns %8.2fx\n" name base now (base /. now))
    rows;
  let flagged = List.filter (fun (_, _, _, r) -> r > 1.0 && r > 2.0 *. m) rows in
  List.iter
    (fun (name, base, now, r) ->
      Printf.eprintf
        "bench: REGRESSION %s: %.0f -> %.0f ns/op (%.2fx vs %.2fx median)\n" name
        base now r m)
    flagged;
  if flagged <> [] && enforce then exit 1

let run_json ~quick ~json ~baseline ~enforce =
  let results = measure_kernels ~quick in
  write_json json results;
  Printf.printf "bench: wrote %s (%d kernels, schema ks-bench/1)\n" json
    (List.length results);
  match baseline with
  | None -> ()
  | Some path ->
    (match parse_baseline path with
     | baseline -> compare_baseline ~enforce results baseline
     | exception (Sys_error e | Failure e) ->
       Printf.eprintf "bench: --baseline: %s\n" e;
       exit 2)

let usage_and_exit () =
  prerr_endline
    "usage: main.exe [--quick | --table tN | --json FILE] [--trace FILE]";
  prerr_endline "                [--baseline FILE] [--enforce-baseline]";
  Printf.eprintf "  tables: %s\n" (String.concat " " Experiments.table_names);
  prerr_endline "  --json FILE: coding-kernel microbenchmarks as ks-bench/1 JSON";
  prerr_endline "               (--quick shortens the measurement quota;";
  prerr_endline "                --baseline FILE prints a speedup table and flags >2x";
  prerr_endline "                normalised regressions, fatal with --enforce-baseline)";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [--trace FILE] streams the JSONL event trace of whatever runs. *)
  let trace, args =
    let rec strip acc = function
      | "--trace" :: file :: rest ->
        let sink =
          try Ks_monitor.Trace.file file
          with Sys_error e ->
            Printf.eprintf "bench: --trace: %s\n" e;
            exit 2
        in
        (Some sink, List.rev_append acc rest)
      | [ "--trace" ] ->
        prerr_endline "bench: --trace requires a FILE argument";
        usage_and_exit ()
      | a :: rest -> strip (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] args
  in
  (* [--json FILE] / [--baseline FILE] / [--enforce-baseline] select and
     configure the coding-kernel microbenchmark mode. *)
  let take_file flag args =
    let rec strip acc = function
      | f :: file :: rest when f = flag && String.length file > 0 && file.[0] <> '-' ->
        (Some file, List.rev_append acc rest)
      | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires a FILE argument\n" flag;
        usage_and_exit ()
      | f :: _ when f = flag ->
        Printf.eprintf "bench: %s requires a FILE argument\n" flag;
        usage_and_exit ()
      | a :: rest -> strip (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] args
  in
  let json, args = take_file "--json" args in
  let baseline, args = take_file "--baseline" args in
  let enforce = List.mem "--enforce-baseline" args in
  let args = List.filter (fun a -> a <> "--enforce-baseline") args in
  (match json, baseline, enforce with
   | None, Some _, _ | None, _, true ->
     prerr_endline "bench: --baseline/--enforce-baseline need --json FILE";
     usage_and_exit ()
   | _ -> ());
  match json with
  | Some json ->
    (match args with
     | [] -> run_json ~quick:false ~json ~baseline ~enforce
     | [ "--quick" ] -> run_json ~quick:true ~json ~baseline ~enforce
     | _ ->
       prerr_endline "bench: --json combines only with --quick/--baseline";
       usage_and_exit ())
  | None ->
    (* Exactly one mode; anything unrecognised is an error, not a no-op. *)
    (match args with
     | [ "--table" ] ->
       prerr_endline "bench: --table requires a table name";
       usage_and_exit ()
     | [ "--table"; name ] ->
       if List.mem name Experiments.table_names then
         Experiments.run_tables ?trace [ name ]
       else begin
         Printf.eprintf "bench: unknown table %S\n" name;
         usage_and_exit ()
       end
     | [ "--quick" ] -> Experiments.run_all ~quick:true ?trace ()
     | [] -> Experiments.run_all ?trace ()
     | args ->
       let known a = List.mem a [ "--quick"; "--table" ] in
       (match List.find_opt (fun a -> not (known a)) args with
        | Some unknown when String.length unknown > 0 && unknown.[0] = '-' ->
          Printf.eprintf "bench: unknown option %s\n" unknown
        | Some stray -> Printf.eprintf "bench: unexpected argument %s\n" stray
        | None -> prerr_endline "bench: expected exactly one mode");
       usage_and_exit ())
