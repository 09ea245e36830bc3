(* The benign-fault layer (lib/faults, docs/FAULTS.md): plan
   serialization, per-channel omission/duplication, crash-recover churn,
   silence windows, the pay-for-what-you-use guarantee (a trivial plan
   is bit-identical to no plan at all), seeded determinism, trace
   round-trips through [Trace.replay], and the graceful-degradation
   counters the fault layer feeds (Comm retries, Shamir decode-failure
   detection). *)

open Ks_sim
module Plan = Ks_faults.Plan
module Injector = Ks_faults.Injector

let plan s =
  match Plan.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let envelope src dst payload = { Types.src; dst; payload }

let mk_net ?faults ?hub ?(n = 8) ?(budget = 0) () =
  Net.create ?hub ?faults ~seed:5L ~n ~budget
    ~msg_bits:(fun (_ : int) -> 4)
    ~strategy:Adversary.none ()

(* All-to-all traffic for [rounds] rounds; returns the inbox counts of
   the last round. *)
let drive net ~n ~rounds =
  let msgs =
    List.concat_map
      (fun src -> List.filter_map
          (fun dst -> if src = dst then None else Some (envelope src dst src))
          (List.init n (fun i -> i)))
      (List.init n (fun i -> i))
  in
  let last = ref [||] in
  for _ = 1 to rounds do
    last := Net.exchange net msgs
  done;
  !last

(* --- Plan serialization --- *)

let test_plan_roundtrip () =
  let p = plan "seed=42,drop=0.25,dup=0.125,crash=0.5,recover=0.75,max_down=3,silence=0.0625,silence_len=4" in
  (match Plan.of_string (Plan.to_string p) with
   | Ok p' -> Alcotest.(check string) "round-trip" (Plan.to_string p) (Plan.to_string p')
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "non-trivial" false (Plan.is_trivial p);
  Alcotest.(check bool) "none trivial" true (Plan.is_trivial Plan.none);
  (* Churn-only and silence-only plans are non-trivial too. *)
  Alcotest.(check bool) "churn non-trivial" false (Plan.is_trivial (plan "crash=0.1"));
  Alcotest.(check bool) "silence non-trivial" false (Plan.is_trivial (plan "silence=0.1"))

let test_plan_errors () =
  let bad s =
    match Plan.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "bogus=1";
  bad "drop=1.5";
  bad "drop=-0.1";
  bad "drop=abc";
  bad "silence_len=0";
  bad "max_down=-1";
  bad "seed=x";
  bad "drop";
  (* Empty fields are tolerated; empty string parses to the trivial plan. *)
  match Plan.of_string "" with
  | Ok p -> Alcotest.(check bool) "empty is trivial" true (Plan.is_trivial p)
  | Error e -> Alcotest.fail e

let test_trivial_plan_no_injector () =
  Alcotest.(check bool) "no injector for trivial plan" true
    (Injector.create Plan.none ~label:"x" ~n:4 = None)

(* --- Pay for what you use: a trivial plan is bit-identical to none. --- *)

let trace_of ?faults ?ambient_plan () =
  let sink = Ks_monitor.Trace.ring ~capacity:4096 in
  let hub = Ks_monitor.Hub.create ~trace:sink ~close_trace:false [] in
  let go () =
    let net = mk_net ?faults ~hub ~n:6 () in
    ignore (drive net ~n:6 ~rounds:3);
    Net.emit_meter net
  in
  (match ambient_plan with
   | Some p -> Plan.with_plan p go
   | None -> go ());
  ignore (Ks_monitor.Hub.finish hub);
  Ks_monitor.Trace.render (Ks_monitor.Trace.contents sink)

let test_empty_plan_identical () =
  let bare = trace_of () in
  Alcotest.(check string) "explicit trivial plan"
    bare (trace_of ~faults:Plan.none ());
  Alcotest.(check string) "ambient trivial plan"
    bare (trace_of ~ambient_plan:Plan.none ());
  Alcotest.(check bool) "trace non-empty" true (String.length bare > 0)

let test_faulted_trace_deterministic () =
  let p = plan "seed=7,drop=0.3,dup=0.2,crash=0.1,recover=0.5,silence=0.2,silence_len=2" in
  let a = trace_of ~faults:p () and b = trace_of ~faults:p () in
  Alcotest.(check string) "same plan, same trace" a b;
  Alcotest.(check bool) "differs from unfaulted" true (a <> trace_of ());
  (* A different plan seed reshuffles the fault stream. *)
  let c = trace_of ~faults:{ p with Plan.seed = 8L } () in
  Alcotest.(check bool) "different seed, different trace" true (a <> c)

(* --- Omission and duplication semantics --- *)

let test_drop_all () =
  let net = mk_net ~faults:(plan "drop=1") ~n:4 () in
  let inboxes = Net.exchange net [ envelope 0 1 9; envelope 2 3 9 ] in
  Array.iter
    (fun inbox -> Alcotest.(check int) "nothing delivered" 0 (List.length inbox))
    inboxes;
  (* The senders still paid: omission is in-flight, below the meter. *)
  let m = Net.meter net in
  Alcotest.(check int) "sender 0 charged" 4 (Meter.sent_bits m 0);
  Alcotest.(check int) "sender 2 charged" 4 (Meter.sent_bits m 2);
  Alcotest.(check int) "receiver 1 not charged" 0 (Meter.recv_bits m 1)

let test_dup_all () =
  let net = mk_net ~faults:(plan "dup=1") ~n:4 () in
  let inboxes = Net.exchange net [ envelope 0 1 9 ] in
  Alcotest.(check int) "delivered twice" 2 (List.length inboxes.(1));
  let m = Net.meter net in
  Alcotest.(check int) "sender charged once" 4 (Meter.sent_bits m 0);
  Alcotest.(check int) "receiver charged twice" 8 (Meter.recv_bits m 1)

(* --- Crash-recover churn --- *)

let test_churn_cap_and_silence () =
  (* crash=1 with a cap of 2: exactly two processors are ever down at
     once; they neither send nor receive while down. *)
  let p = plan "crash=1,recover=0,max_down=2" in
  let net = mk_net ~faults:p ~n:6 () in
  let inboxes = drive net ~n:6 ~rounds:2 in
  let delivered_to = Array.map List.length inboxes in
  let silent_dsts =
    Array.to_list delivered_to |> List.filter (fun c -> c = 0) |> List.length
  in
  Alcotest.(check int) "exactly the two crashed receive nothing" 2 silent_dsts;
  (* Everyone else hears from all senders except the two crashed. *)
  Array.iteri
    (fun dst c -> if c > 0 then Alcotest.(check int)
        (Printf.sprintf "dst %d hears n-1-2 senders" dst) 3 c)
    delivered_to

let test_churn_recovery () =
  (* crash everyone (no cap), then recover=1 brings each back the next
     round: deliveries resume. *)
  let p = plan "crash=1,recover=1" in
  let net = mk_net ~faults:p ~n:4 () in
  let r0 = Net.exchange net [ envelope 0 1 9 ] in
  Alcotest.(check int) "round 0: all down, nothing delivered" 0
    (List.length r0.(1));
  (* Round 1: everyone recovers at round start (recover=1), and with the
     cap-free crash=1 draw they all crash again — churn is per-round.
     Observable effect: state keeps evolving deterministically; the run
     does not wedge. *)
  let r1 = Net.exchange net [ envelope 0 1 9 ] in
  ignore r1;
  Alcotest.(check int) "rounds advanced" 2 (Net.round net)

let test_silence_windows () =
  (* silence=1, silence_len=3: every good sender is silenced for 3
     rounds starting at round 0; their sends are suppressed before
     metering (unlike in-flight drops). *)
  let p = plan "silence=1,silence_len=3" in
  let net = mk_net ~faults:p ~n:4 () in
  let r0 = Net.exchange net [ envelope 0 1 9 ] in
  Alcotest.(check int) "suppressed" 0 (List.length r0.(1));
  Alcotest.(check int) "suppressed sends are never charged" 0
    (Meter.sent_bits (Net.meter net) 0)

(* --- Faults never touch the corruption budget --- *)

let test_budget_untouched () =
  let p = plan "drop=0.5,dup=0.5,crash=0.3,recover=0.2,silence=0.3" in
  let net = mk_net ~faults:p ~n:8 ~budget:3 () in
  ignore (drive net ~n:8 ~rounds:5);
  Alcotest.(check int) "no corruptions from faults" 0 (Net.corrupt_count net)

(* --- Fault events: emission, JSON round-trip, file replay --- *)

let test_fault_event_json () =
  let e =
    Ks_monitor.Event.Fault
      { net = 3; round = 7; kind = "drop"; proc = 1; dst = 4; info = 12 }
  in
  match Ks_monitor.Event.of_json (Ks_monitor.Event.to_json e) with
  | Some e' ->
    Alcotest.(check string) "round-trip" (Ks_monitor.Event.to_json e)
      (Ks_monitor.Event.to_json e')
  | None -> Alcotest.fail "fault event did not parse back"

let test_replay_reconstructs_faults () =
  let path = Filename.temp_file "ks_faults" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Ks_monitor.Trace.file path in
      let hub = Ks_monitor.Hub.create ~trace:sink ~close_trace:true [] in
      let p = plan "seed=3,drop=0.4,dup=0.2,crash=0.2,recover=0.5,silence=0.2" in
      let net = mk_net ~faults:p ~hub ~n:6 () in
      ignore (drive net ~n:6 ~rounds:4);
      Net.emit_meter net;
      ignore (Ks_monitor.Hub.finish hub);
      let events = Ks_monitor.Trace.replay path in
      let faults =
        List.filter
          (function Ks_monitor.Event.Fault _ -> true | _ -> false)
          events
      in
      Alcotest.(check bool) "fault events present" true (List.length faults > 0);
      (* Byte-for-byte: re-rendering the replayed events reproduces the
         file, injected faults included. *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "render (replay file) == file" raw
        (Ks_monitor.Trace.render events))

(* --- Graceful degradation: bounded retry + decode-failure detection --- *)

let test_shamir_failure_hook () =
  let failures = ref 0 in
  (* An empty holder list cannot reconstruct anything. *)
  (match Ks_shamir.Shamir.reconstruct_vectors ~failures ~threshold:2 [] with
   | Some _ -> Alcotest.fail "reconstructed from nothing"
   | None -> ());
  Alcotest.(check int) "failure counted" 1 !failures

let ae_run ~retries ~faults () =
  let n = 16 in
  let params = Ks_core.Params.practical n in
  Plan.with_plan faults (fun () ->
      Ks_core.Ae_ba.run ~retries ~params ~seed:11L
        ~inputs:(Array.init n (fun i -> i mod 2 = 0))
        ~behavior:Ks_core.Comm.Follow ~strategy:Adversary.none ())

let test_comm_retries_observable () =
  let p = plan "seed=5,drop=0.1" in
  let faulted = ae_run ~retries:2 ~faults:p () in
  Alcotest.(check bool) "re-request rounds taken" true
    (Ks_core.Comm.retries_used faulted.Ks_core.Ae_ba.comm > 0);
  let no_retry = ae_run ~retries:0 ~faults:p () in
  Alcotest.(check int) "retries=0 never re-requests" 0
    (Ks_core.Comm.retries_used no_retry.Ks_core.Ae_ba.comm);
  Alcotest.(check bool) "failures still detected without retries" true
    (Ks_core.Comm.decode_failures no_retry.Ks_core.Ae_ba.comm > 0);
  (* With no faults and no adversary, nothing fails and nothing retries. *)
  let clean = ae_run ~retries:2 ~faults:Plan.none () in
  Alcotest.(check int) "clean run: no failures" 0
    (Ks_core.Comm.decode_failures clean.Ks_core.Ae_ba.comm);
  Alcotest.(check int) "clean run: no retries" 0
    (Ks_core.Comm.retries_used clean.Ks_core.Ae_ba.comm)

(* --- Async net: in-flight faults at enqueue --- *)

let mk_async ?faults () =
  Ks_async.Async_net.create ?faults ~seed:5L ~n:4 ~corrupt:[]
    ~msg_bits:(fun (_ : int) -> 4)
    ~scheduler:Ks_async.Async_net.Fair ()

let test_async_drop_and_dup () =
  let dropped = mk_async ~faults:(plan "drop=1") () in
  Ks_async.Async_net.send dropped [ envelope 0 1 9 ];
  Alcotest.(check int) "drop=1: nothing pending" 0
    (Ks_async.Async_net.pending dropped);
  Alcotest.(check int) "sender still charged" 4
    (Meter.sent_bits (Ks_async.Async_net.meter dropped) 0);
  let duped = mk_async ~faults:(plan "dup=1") () in
  Ks_async.Async_net.send duped [ envelope 0 1 9 ];
  Alcotest.(check int) "dup=1: queued twice" 2
    (Ks_async.Async_net.pending duped);
  let plain = mk_async () in
  Ks_async.Async_net.send plain [ envelope 0 1 9 ];
  Alcotest.(check int) "no plan: queued once" 1
    (Ks_async.Async_net.pending plain)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_plan_errors;
          Alcotest.test_case "trivial plan, no injector" `Quick
            test_trivial_plan_no_injector;
        ] );
      ( "pay-for-what-you-use",
        [
          Alcotest.test_case "empty plan identical" `Quick
            test_empty_plan_identical;
          Alcotest.test_case "budget untouched" `Quick test_budget_untouched;
        ] );
      ( "injection",
        [
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "dup all" `Quick test_dup_all;
          Alcotest.test_case "churn cap" `Quick test_churn_cap_and_silence;
          Alcotest.test_case "churn recovery" `Quick test_churn_recovery;
          Alcotest.test_case "silence windows" `Quick test_silence_windows;
          Alcotest.test_case "deterministic trace" `Quick
            test_faulted_trace_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fault event json" `Quick test_fault_event_json;
          Alcotest.test_case "replay reconstructs faults" `Quick
            test_replay_reconstructs_faults;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "shamir failure hook" `Quick
            test_shamir_failure_hook;
          Alcotest.test_case "comm retries observable" `Quick
            test_comm_retries_observable;
        ] );
      ( "async",
        [
          Alcotest.test_case "drop and dup" `Quick test_async_drop_and_dup;
        ] );
    ]
