(* ba_sim — command-line driver for the King–Saia reproduction.

   Run one protocol at a chosen size, adversary and seed, and print the
   outcome and communication costs:

     ba_sim run --protocol everywhere -n 128 --adversary byz-static --seed 7
     ba_sim run --protocol rabin -n 256 --adversary crash
     ba_sim inspect -n 1024            # show parameters, tree and layout
*)

module Params = Ks_core.Params
module Inputs = Ks_workload.Inputs
module Prng = Ks_stdx.Prng
open Cmdliner

let adversary_of_name name =
  match Ks_attacks.find name with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown adversary %S (one of: %s; see --list-adversaries)"
         name
         (String.concat ", " (List.map (fun a -> a.Ks_attacks.name) Ks_attacks.all)))

let inputs_of_name rng ~n = function
  | "split" -> Ok (Inputs.generate rng ~n Inputs.Split)
  | "random" -> Ok (Inputs.generate rng ~n Inputs.Random)
  | "zeros" -> Ok (Inputs.generate rng ~n Inputs.All_zero)
  | "ones" -> Ok (Inputs.generate rng ~n Inputs.All_one)
  | other -> Error (Printf.sprintf "unknown inputs %S (split|random|zeros|ones)" other)

(* Documented exit codes (docs/FAULTS.md, pinned by test/test_cli.ml):
   0 = agreed cleanly, 3 = degraded but agreed (decode failures detected
   and/or re-request rounds spent), 4 = failed (no agreement, or an
   invariant violation).  Usage errors keep cmdliner's 124. *)
let exit_agreed = 0
let exit_degraded = 3
let exit_failed = 4

let report_everywhere ~label ~budget ~n (r : Ks_core.Everywhere.result) =
  Printf.printf "everywhere BA: n=%d adversary=%s budget=%d\n" n label budget;
  Printf.printf "  success=%b safe=%b value=%s\n" r.success r.safe
    (match r.agreed_value with Some v -> string_of_int v | None -> "-");
  Printf.printf "  a.e. agreement=%.1f%% (tournament), rounds ae=%d a2e=%d\n"
    (100.0 *. r.ae.agreement) r.ae_rounds r.a2e_rounds;
  Printf.printf "  max bits/proc: tournament=%d amplify=%d total=%d\n"
    r.max_sent_bits_ae r.max_sent_bits_a2e r.max_sent_bits_total;
  Printf.printf
    "  degraded=%b decode_failures=%d retries_used=%d shortfalls=%d quarantined=%d\n"
    r.degraded r.decode_failures r.retries_used r.ae.quorum_shortfalls
    (Ks_core.Comm.quarantine_events r.ae.comm);
  if not r.success then begin
    Printf.printf "  FAILED: no everywhere agreement\n";
    `Ok exit_failed
  end
  else if r.degraded then `Ok exit_degraded
  else `Ok exit_agreed

let report_ae ~n (r : Ks_core.Ae_ba.result) =
  Printf.printf "almost-everywhere BA: agreement=%.1f%% majority=%b valid=%b\n"
    (100.0 *. r.agreement) r.majority r.valid;
  List.iter
    (fun (e : Ks_core.Ae_ba.election_stats) ->
      Printf.printf "  election l%d/n%d: %d cands -> %d winners (good %.0f%%)\n"
        e.level e.node (Array.length e.candidates) (Array.length e.winners)
        (100.0 *. e.good_winner_fraction))
    r.elections;
  let decode_failures = Ks_core.Comm.decode_failures r.comm in
  let retries_used = Ks_core.Comm.retries_used r.comm in
  Printf.printf "  decode_failures=%d retries_used=%d shortfalls=%d quarantined=%d\n"
    decode_failures retries_used r.quorum_shortfalls
    (Ks_core.Comm.quarantine_events r.comm);
  (* Theorem 2's guarantee: a 1 - 1/log n fraction of the good processors
     agree on a good input. *)
  let target = 1.0 -. (1.0 /. float_of_int (Ks_stdx.Intmath.ceil_log2 n)) in
  if not (r.valid && r.agreement >= target) then begin
    Printf.printf "  FAILED: almost-everywhere agreement below %.1f%% or invalid\n"
      (100.0 *. target);
    `Ok exit_failed
  end
  else if decode_failures > 0 || retries_used > 0 then `Ok exit_degraded
  else `Ok exit_agreed

let report_baseline (o : Ks_baselines.Outcome.t) =
  Printf.printf "baseline: agreement=%b validity=%b rounds=%d max bits/proc=%d\n"
    o.agreement o.validity o.rounds o.max_sent_bits;
  if o.agreement then `Ok exit_agreed
  else begin
    Printf.printf "  FAILED: disagreement\n";
    `Ok exit_failed
  end

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let run_async ~n ~budget ~behavior ~seed ~inputs =
  let f = Stdlib.min ((n - 2) / 3) budget in
  let byz =
    match behavior with
    | Ks_core.Comm.Silent -> Ks_async.Async_ba.Silent
    | Ks_core.Comm.Follow | Ks_core.Comm.Garbage | Ks_core.Comm.Flip
    | Ks_core.Comm.Equivocate ->
      Ks_async.Async_ba.Equivocate
  in
  let o =
    Ks_async.Async_ba.run ~seed ~n ~f ~inputs ~byz
      ~scheduler:Ks_async.Async_net.Fair ~max_events:8_000_000 ()
  in
  Printf.printf
    "async BA (MMR'14, coin oracle): n=%d f=%d\n\
    \  agreement=%b validity=%b rounds=%d deliveries=%d max bits/proc=%d\n"
    n f o.Ks_async.Async_ba.agreement o.Ks_async.Async_ba.validity
    o.Ks_async.Async_ba.max_rounds o.Ks_async.Async_ba.events
    o.Ks_async.Async_ba.max_sent_bits;
  if o.Ks_async.Async_ba.agreement then `Ok exit_agreed
  else begin
    Printf.printf "  FAILED: disagreement\n";
    `Ok exit_failed
  end

(* One protocol run under [entry] at [fraction]; the catalog's runners
   aim tree strategies at the tree the protocol builds. *)
let run_protocol protocol ~retries ~quarantine ~params ~entry ~fraction ~seed
    ~inputs =
  let n = params.Params.n in
  let budget = Ks_attacks.budget ~params ~fraction in
  match protocol with
  | "everywhere" ->
    report_everywhere ~label:entry.Ks_attacks.name ~budget ~n
      (Ks_attacks.everywhere ~fraction ~retries ~quarantine ~params ~seed ~inputs
         entry)
  | "ae" ->
    report_ae ~n
      (Ks_attacks.ae ~fraction ~retries ~quarantine ~params ~seed ~inputs entry)
  | "rabin" -> report_baseline (Ks_attacks.rabin ~fraction ~params ~seed ~inputs entry)
  | "phase-king" ->
    let faults = Stdlib.min budget (Stdlib.max 1 ((n / 4) - 1)) in
    report_baseline
      (Ks_baselines.Phase_king.run ~seed ~n ~budget:faults ~faults ~inputs
         ~strategy:(Ks_attacks.generic_strategy entry ~budget))
  | "ben-or" ->
    report_baseline
      (Ks_baselines.Ben_or.run ~seed ~n ~budget:(Stdlib.min budget (n / 6))
         ~max_phases:(4 * Ks_stdx.Intmath.ceil_log2 n) ~inputs
         ~strategy:(Ks_attacks.generic_strategy entry ~budget))
  | "async" ->
    run_async ~n ~budget ~behavior:entry.Ks_attacks.behavior ~seed ~inputs
  | other ->
    `Error
      ( false,
        Printf.sprintf
          "unknown protocol %S (everywhere|ae|rabin|phase-king|ben-or|async)" other )

(* Every run executes under the invariant monitors: the accounting set of
   [Experiments.standard_monitors] plus agreement/validity over the actual
   decisions.  [--trace FILE] additionally streams the JSONL event trace. *)
let monitored ~envelopes ~trace_file ~inputs f =
  match
    try Ok (Option.map Ks_monitor.Trace.file trace_file)
    with Sys_error e -> Error (`Error (false, Printf.sprintf "--trace: %s" e))
  with
  | Error e -> e
  | Ok trace ->
  (* Attack runs flood crafted traffic and runs past the model's budget
     corrupt more than 1/3 may tolerate, so the bit/round envelopes do not
     apply to them; the budget, agreement and validity invariants always
     do. *)
  let monitors =
    (if envelopes then Ks_workload.Experiments.standard_monitors ()
     else [ Ks_monitor.Monitor.corruption_budget () ])
    @ [
        Ks_monitor.Monitor.agreement ();
        Ks_monitor.Monitor.validity ~inputs:(Array.map Bool.to_int inputs);
      ]
  in
  let hub = Ks_monitor.Hub.create ?trace monitors in
  let result = Ks_monitor.Hub.with_ambient hub f in
  match Ks_monitor.Hub.finish hub with
  | [] -> result
  | vs ->
    prerr_string (Ks_monitor.Hub.render_violations vs);
    Printf.eprintf "FAILED: %d invariant violation(s)\n" (List.length vs);
    `Ok exit_failed

let run_cmd verbose protocol n adversary fraction no_quarantine seed inputs
    trace_file faults retries_opt =
  setup_logging verbose;
  match adversary_of_name adversary with
  | Error e -> `Error (false, e)
  | Ok entry -> (
    match Option.value fraction ~default:entry.Ks_attacks.fraction with
    | f when f < 0. || f > 1. ->
      `Error (false, Printf.sprintf "--corrupt %g is not a fraction in [0,1]" f)
    | fraction -> (
      match
        match faults with
        | None -> Ok None
        | Some s -> Result.map Option.some (Ks_faults.Plan.of_string_or_preset s)
      with
      | Error e -> `Error (false, e)
      | Ok plan ->
        let params = Params.practical n in
        let rng = Prng.create (Int64.of_int seed) in
        (match inputs_of_name rng ~n inputs with
         | Error e -> `Error (false, e)
         | Ok input_bits ->
           let seed = Int64.of_int seed in
           let quarantine = not no_quarantine in
           (* Bounded retry defaults on exactly when faults are injected:
              plain runs stay bit-identical to the pre-fault-layer code. *)
           let retries =
             match retries_opt with
             | Some r -> Stdlib.max 0 r
             | None -> ( match plan with Some _ -> 2 | None -> 0)
           in
           let envelopes =
             (not entry.Ks_attacks.attack)
             && Ks_attacks.budget ~params ~fraction <= Params.corruption_budget params
           in
           let go () =
             monitored ~envelopes ~trace_file ~inputs:input_bits (fun () ->
                 run_protocol protocol ~retries ~quarantine ~params ~entry ~fraction
                   ~seed ~inputs:input_bits)
           in
           (match plan with
            | Some p -> Ks_faults.Plan.with_plan p go
            | None -> go ()))))

let inspect_cmd n theoretical =
  let params = if theoretical then Params.theoretical n else Params.practical n in
  Format.printf "parameters: %a@." Params.pp params;
  if not theoretical then begin
    let tree = Ks_core.Everywhere.tree ~params ~seed:1L in
    Printf.printf "tree: %d levels\n" (Ks_topology.Tree.levels tree);
    for level = 1 to Ks_topology.Tree.levels tree do
      Printf.printf "  level %d: %d nodes x %d members\n" level
        (Ks_topology.Tree.node_count tree ~level)
        (Ks_topology.Tree.node_size tree ~level)
    done;
    let layout = Ks_core.Ae_ba.Layout.make params tree in
    Printf.printf "candidate array: %d words " layout.Ks_core.Ae_ba.Layout.total;
    Printf.printf "(election blocks + root coin + amplification coin)\n";
    Printf.printf "corruption budget: %d (%.1f%% of n)\n"
      (Params.corruption_budget params)
      (100.0 *. float_of_int (Params.corruption_budget params) /. float_of_int n)
  end;
  `Ok 0

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

let protocol_arg =
  Arg.(
    value
    & opt string "everywhere"
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"Protocol: everywhere, ae, rabin, phase-king, ben-or or async.")

let adversary_arg =
  Arg.(
    value
    & opt string "byz-static"
    & info [ "a"; "adversary" ] ~docv:"NAME"
        ~doc:
          "Adversary from the catalog (docs/ATTACKS.md): a scenario (honest, \
           crash, byz-static, byz-adaptive, eclipse, flood) or an active attack.  \
           See $(b,ba_sim --list-adversaries).")

let corrupt_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "corrupt" ] ~docv:"FRAC"
        ~doc:
          "Corrupted fraction of processors (default: the adversary's own, 0 \
           for honest and 0.25 otherwise).  May deliberately exceed 1/3; \
           capped at n-1 processors.")

let no_quarantine_arg =
  Arg.(
    value
    & flag
    & info [ "no-quarantine" ]
        ~doc:
          "Disarm the tree phase's provable-misbehaviour quarantine layer \
           (armed by default; see docs/ATTACKS.md).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let inputs_arg =
  Arg.(
    value
    & opt string "split"
    & info [ "inputs" ] ~doc:"Input assignment: split, random, zeros or ones.")

let theoretical_arg =
  Arg.(value & flag & info [ "theoretical" ] ~doc:"Show the paper-faithful profile.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log protocol phases to stderr.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured JSONL event trace (rounds, sends, corruptions, \
           decisions, meters) to $(docv).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Benign-fault plan: a preset name (see $(b,ba_sim --list-faults)) or \
           a comma-separated key=value list (see docs/FAULTS.md): drop, dup, \
           crash, recover, silence, silence_len, max_down, seed.  Example: \
           drop=0.1,dup=0.02,crash=0.01,recover=0.3.  Faults never consume \
           the adversary's corruption budget.")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-request rounds allowed per failed robust decode in the tree phase \
           (graceful degradation).  Defaults to 2 when $(b,--faults) is given, 0 \
           otherwise.")

let run_term =
  Term.(
    ret
      (const run_cmd $ verbose_arg $ protocol_arg $ n_arg $ adversary_arg
     $ corrupt_arg $ no_quarantine_arg $ seed_arg $ inputs_arg
     $ trace_arg $ faults_arg $ retries_arg))

let inspect_term = Term.(ret (const inspect_cmd $ n_arg $ theoretical_arg))

let cmds =
  [
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a protocol once and print the outcome.  Exit codes: 0 = agreed, \
            3 = degraded but agreed, 4 = failed (no agreement or invariant \
            violation), 124 = usage error.")
      run_term;
    Cmd.v
      (Cmd.info "inspect" ~doc:"Print the derived parameters, tree shape and layout.")
      inspect_term;
  ]

(* Top-level catalog listings ([ba_sim --list-adversaries] / [--list-faults]);
   with neither flag the default term falls back to the group help, so
   plain [ba_sim] stays informative. *)
let list_cmd list_adversaries list_faults =
  if list_adversaries then begin
    List.iter
      (fun a -> Printf.printf "%-18s %s\n" a.Ks_attacks.name a.Ks_attacks.doc)
      Ks_attacks.all;
    `Ok 0
  end
  else if list_faults then begin
    List.iter
      (fun (name, plan, doc) ->
        Printf.printf "%-8s %s\n%8s   (%s)\n" name doc ""
          (Ks_faults.Plan.to_string plan))
      Ks_faults.Plan.presets;
    `Ok 0
  end
  else `Help (`Auto, None)

let list_adversaries_arg =
  Arg.(
    value
    & flag
    & info [ "list-adversaries" ]
        ~doc:"List the adversary catalog (for $(b,run --adversary)) and exit.")

let list_faults_arg =
  Arg.(
    value
    & flag
    & info [ "list-faults" ]
        ~doc:"List the named benign-fault presets (for $(b,run --faults)) and exit.")

let default_term = Term.(ret (const list_cmd $ list_adversaries_arg $ list_faults_arg))

let () =
  let info =
    Cmd.info "ba_sim" ~version:"1.0.0"
      ~doc:"Scalable Byzantine agreement (King-Saia PODC'10) simulator"
  in
  (* [eval_value] instead of [eval]: the run commands' return value is the
     process exit code (0/3/4, documented above), while usage and internal
     errors keep cmdliner's distinct 124/125. *)
  match Cmd.eval_value (Cmd.group ~default:default_term info cmds) with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit Cmd.Exit.cli_error
  | Error `Exn -> exit Cmd.Exit.internal_error
