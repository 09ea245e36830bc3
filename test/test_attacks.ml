(* Attack-library tests: decoder fuzzers (every parser returns a typed
   result on arbitrary bytes — never an exception), the adversarial
   metering and rushing-view contracts of Ks_sim.Net, the quarantine
   layer's trace round-trip, the bad-share-inside safety property
   (robust decoding never silently flips a value), and that the catalog's
   runners aim tree strategies at the tree the protocol builds. *)

module Comm = Ks_core.Comm
module A2e = Ks_core.Ae_to_e
module Params = Ks_core.Params
module Tree = Ks_topology.Tree
module Wire = Ks_stdx.Wire
module Prng = Ks_stdx.Prng
module Event = Ks_monitor.Event
module Trace = Ks_monitor.Trace

(* --- fuzzers: every decode path is total ----------------------------- *)

let random_bytes rng =
  let len = Prng.int rng 64 in
  Bytes.init len (fun _ -> Char.chr (Prng.int rng 256))

(* [decoder buf] must return [Ok _] or [Error _]; raising is the bug
   class these fuzzers exist to catch. *)
let fuzz_random name decoder iters seed =
  let rng = Prng.create seed in
  for i = 1 to iters do
    let buf = random_bytes rng in
    match decoder buf with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "%s raised %s on case %d (%d bytes)" name
        (Printexc.to_string e) i (Bytes.length buf)
  done

let sample_payloads =
  [
    Comm.Deal { cand = 3; inst = 2; words = [| 1; 2; 3 |] };
    Comm.Share_up { cand = 0; inst = 7; words = [| 0 |] };
    Comm.Share_down
      { cand = 5; level = 2; node = 1; inst = 4; off = 6; words = [| 9; 8 |] };
    Comm.Leaf_val { cand = 1; leaf = 3; inst = 0; off = 2; words = [| 7 |] };
    Comm.Open_val { cand = 2; leaf = 1; off = 0; words = [| 5; 6; 7; 8 |] };
    Comm.Vote { level = 2; node = 3; ba = 1; vote = true };
    Comm.Votes { level = 1; node = 0; packed = Bytes.of_string "\x05\xaa" };
  ]

let sample_a2e =
  [ A2e.Request 0; A2e.Request 3000; A2e.Reply { label = 7; value = 123456 } ]

(* Every strict prefix of a valid encoding must come back [Error]:
   the codecs are self-delimiting and demand full consumption. *)
let fuzz_truncations name encode decode samples =
  List.iter
    (fun m ->
      let buf = encode m in
      Alcotest.(check bool)
        (Printf.sprintf "%s: full decode round-trips" name)
        true
        (decode buf = Ok m);
      for len = 0 to Bytes.length buf - 1 do
        match decode (Bytes.sub buf 0 len) with
        | Error _ -> ()
        | Ok _ ->
          Alcotest.failf "%s: %d-byte prefix of a %d-byte message decoded Ok"
            name len (Bytes.length buf)
        | exception e ->
          Alcotest.failf "%s: prefix decode raised %s" name (Printexc.to_string e)
      done)
    samples

(* Single-byte mutations of valid encodings: still total. *)
let fuzz_mutations name encode decode samples iters seed =
  let rng = Prng.create seed in
  let encoded = Array.of_list (List.map encode samples) in
  for i = 1 to iters do
    let buf = Bytes.copy encoded.(Prng.int rng (Array.length encoded)) in
    if Bytes.length buf > 0 then begin
      Bytes.set buf (Prng.int rng (Bytes.length buf))
        (Char.chr (Prng.int rng 256));
      match decode buf with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s raised %s on mutation %d" name (Printexc.to_string e) i
    end
  done

let test_fuzz_payload () =
  fuzz_random "Comm.decode_payload" Comm.decode_payload 10_000 101L;
  fuzz_truncations "Comm.decode_payload" Comm.encode_payload Comm.decode_payload
    sample_payloads;
  fuzz_mutations "Comm.decode_payload" Comm.encode_payload Comm.decode_payload
    sample_payloads 10_000 102L

let test_fuzz_a2e () =
  fuzz_random "A2e.decode_msg" A2e.decode_msg 10_000 103L;
  fuzz_truncations "A2e.decode_msg" A2e.encode_msg A2e.decode_msg sample_a2e;
  fuzz_mutations "A2e.decode_msg" A2e.encode_msg A2e.decode_msg sample_a2e
    10_000 104L

(* Drive the raw Wire readers with random scripts over random buffers:
   [Wire.decode] must map every outcome to a typed result. *)
let test_fuzz_wire_readers () =
  let rng = Prng.create 105L in
  for i = 1 to 10_000 do
    let buf = random_bytes rng in
    let script = Array.init (1 + Prng.int rng 5) (fun _ -> Prng.int rng 7) in
    let run r =
      Array.iter
        (fun op ->
          match op with
          | 0 -> ignore (Wire.Reader.varint r)
          | 1 -> ignore (Wire.Reader.byte r)
          | 2 -> ignore (Wire.Reader.bool r)
          | 3 -> ignore (Wire.Reader.u32 r)
          | 4 -> ignore (Wire.Reader.bytes r)
          | 5 -> ignore (Wire.Reader.word_array r)
          | _ -> ignore (Wire.Reader.varint_below r ~what:"fuzz" ~bound:1000))
        script
    in
    match Wire.decode buf run with
    | Ok () | Error _ -> ()
    | exception e ->
      Alcotest.failf "Wire.decode raised %s on case %d" (Printexc.to_string e) i
  done

(* --- adversarial envelope: corrupted senders only, metered ----------- *)

let echo_strategy ~forge =
  Ks_sim.Adversary.make ~name:"echo"
    ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0 ])
    ~act:(fun view ->
      let echoes =
        List.map
          (fun e -> { Ks_sim.Types.src = 0; dst = 1; payload = e.Ks_sim.Types.payload + 100 })
          view.Ks_sim.Types.view_visible
      in
      if forge then
        (* src 2 is good and src/dst 99 is out of range: the engine must
           drop both without delivering or metering them. *)
        { Ks_sim.Types.src = 2; dst = 1; payload = 666 }
        :: { Ks_sim.Types.src = 0; dst = 99; payload = 667 }
        :: { Ks_sim.Types.src = 99; dst = 1; payload = 668 }
        :: echoes
      else echoes)
    ()

let mk_int_net ~strategy ~sink =
  let hub = Ks_monitor.Hub.create ~trace:sink ~close_trace:false [] in
  let net =
    Ks_monitor.Hub.with_ambient hub (fun () ->
        Ks_sim.Net.create ~seed:77L ~n:4 ~budget:1
          ~msg_bits:(fun _ -> 32)
          ~strategy ())
  in
  (hub, net)

let test_adversarial_metering_pinned () =
  let sink = Trace.ring ~capacity:128 in
  let _hub, net = mk_int_net ~strategy:(echo_strategy ~forge:true) ~sink in
  let meter = Ks_sim.Net.meter net in
  let delivered =
    Ks_sim.Net.exchange net [ { Ks_sim.Types.src = 2; dst = 0; payload = 7 } ]
  in
  (* The good send 2->0 was delivered, and the rushing echo 0->1 of its
     payload arrived in the same round. *)
  Alcotest.(check (list int)) "corrupt proc received the good message" [ 7 ]
    (List.map (fun e -> e.Ks_sim.Types.payload) delivered.(0));
  Alcotest.(check (list int)) "echo delivered same round" [ 107 ]
    (List.map (fun e -> e.Ks_sim.Types.payload) delivered.(1));
  (* Forged/out-of-range envelopes dropped: nothing else was delivered. *)
  Alcotest.(check int) "no forged delivery to 1" 1 (List.length delivered.(1));
  Alcotest.(check int) "nothing for 2" 0 (List.length delivered.(2));
  Alcotest.(check int) "nothing for 3" 0 (List.length delivered.(3));
  (* Metering, pinned: the good sender paid 32 bits, the corrupted
     sender paid 32 bits for its echo (and nothing for the dropped
     forgeries), nobody else paid anything. *)
  Alcotest.(check int) "good sender metered" 32 (Ks_sim.Meter.sent_bits meter 2);
  Alcotest.(check int) "adversarial send metered" 32 (Ks_sim.Meter.sent_bits meter 0);
  Alcotest.(check int) "idle proc unmetered" 0 (Ks_sim.Meter.sent_bits meter 1);
  Alcotest.(check int) "total pinned" 64 (Ks_sim.Meter.total_sent_bits meter)

let test_rushing_send_ordering () =
  let sink = Trace.ring ~capacity:128 in
  let _hub, net = mk_int_net ~strategy:(echo_strategy ~forge:false) ~sink in
  ignore (Ks_sim.Net.exchange net [ { Ks_sim.Types.src = 2; dst = 0; payload = 7 } ]);
  let sends =
    List.filter_map
      (function
        | Event.Send { src; dst; adv; round; _ } -> Some (round, src, dst, adv)
        | _ -> None)
      (Trace.contents sink)
  in
  (* Pinned trace: the honest round-0 message is delivered (and logged)
     before the adversarial echo of it, in the same round — the rushing
     view saw it pre-delivery, the wire recorded it first. *)
  Alcotest.(check (list string))
    "good send precedes its adversarial echo within the round"
    [ "r0 2->0 adv=false"; "r0 0->1 adv=true" ]
    (List.map
       (fun (r, s, d, a) -> Printf.sprintf "r%d %d->%d adv=%b" r s d a)
       sends)

(* --- quarantine events: emitted, counted, replayable ----------------- *)

let entry name =
  match Ks_attacks.find name with
  | Some a -> a
  | None -> Alcotest.failf "unknown adversary %s" name

let run_attack ?(quarantine = true) ~name ~seed ~n () =
  let params = Params.practical n in
  let inputs = Array.init n (fun i -> i land 1 = 0) in
  Ks_attacks.everywhere ~quarantine ~params ~seed ~inputs (entry name)

let test_quarantine_trace_roundtrip () =
  let file = Filename.temp_file "ks_attacks" ".jsonl" in
  let sink = Trace.file file in
  let hub = Ks_monitor.Hub.create ~trace:sink [] in
  let r =
    Ks_monitor.Hub.with_ambient hub (fun () ->
        run_attack ~name:"wire-junk" ~seed:9L ~n:32 ())
  in
  ignore (Ks_monitor.Hub.finish hub);
  let events = Trace.replay file in
  Sys.remove file;
  let quar =
    List.filter_map
      (function Event.Quarantine _ as e -> Some e | _ -> None)
      events
  in
  Alcotest.(check bool) "wire-junk produces quarantine events" true
    (List.length quar > 0);
  Alcotest.(check int) "replayed events match the comm counter"
    (Comm.quarantine_events r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm)
    (List.length quar);
  List.iter
    (fun e ->
      (match e with
       | Event.Quarantine { evidence; accuser; offender; _ } ->
         Alcotest.(check bool)
           (Printf.sprintf "evidence kind %S is documented" evidence)
           true
           (List.mem evidence [ "out_of_field"; "wrong_length"; "equivocation" ]);
         Alcotest.(check bool) "accuser is not the offender" true
           (accuser <> offender)
       | _ -> assert false);
      (* JSON round-trip through the same codec Trace.replay uses. *)
      Alcotest.(check bool) "to_json/of_json round-trips" true
        (Event.of_json (Event.to_json e) = Some e))
    quar

let test_equivocation_evidence () =
  let r = run_attack ~name:"equivocate" ~seed:9L ~n:32 () in
  Alcotest.(check bool) "equivocation convictions recorded" true
    (Comm.quarantine_events r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm > 0)

let test_quarantine_replayable () =
  (* Same attack, same seed: bit-identical outcome, with and without the
     trace attached — the attack layer is fully seeded. *)
  let r1 = run_attack ~name:"equivocate" ~seed:9L ~n:32 () in
  let r2 = run_attack ~name:"equivocate" ~seed:9L ~n:32 () in
  Alcotest.(check int) "bits identical"
    r1.Ks_core.Everywhere.max_sent_bits_total r2.Ks_core.Everywhere.max_sent_bits_total;
  Alcotest.(check int) "quarantine count identical"
    (Comm.quarantine_events r1.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm)
    (Comm.quarantine_events r2.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm);
  Alcotest.(check bool) "success identical" r1.Ks_core.Everywhere.success
    r2.Ks_core.Everywhere.success

(* --- unattacked runs: attack layer compiled but inert ---------------- *)

let honest_run ?(quarantine = true) () =
  let n = 32 in
  let params = Params.practical n in
  let inputs = Array.init n (fun i -> i land 1 = 0) in
  Ks_core.Everywhere.run ~quarantine ~params ~seed:5L ~inputs
    ~behavior:Comm.Follow ~tree_strategy:Ks_sim.Adversary.none
    ~a2e_strategy:(fun ~carried:_ ~coin:_ -> Ks_sim.Adversary.none)
    ~budget:0 ()

let test_honest_quarantine_identity () =
  let on = honest_run ~quarantine:true () in
  let off = honest_run ~quarantine:false () in
  Alcotest.(check int) "bits identical with quarantine on/off"
    on.Ks_core.Everywhere.max_sent_bits_total off.Ks_core.Everywhere.max_sent_bits_total;
  Alcotest.(check int) "total bits identical"
    on.Ks_core.Everywhere.total_sent_bits off.Ks_core.Everywhere.total_sent_bits;
  Alcotest.(check int) "rounds identical"
    (on.Ks_core.Everywhere.ae_rounds + on.Ks_core.Everywhere.a2e_rounds)
    (off.Ks_core.Everywhere.ae_rounds + off.Ks_core.Everywhere.a2e_rounds);
  Alcotest.(check bool) "success" true on.Ks_core.Everywhere.success;
  Alcotest.(check int) "no convictions on honest traffic" 0
    (Comm.quarantine_events on.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm)

(* --- strategies see the run's tree ------------------------------------ *)

(* [eclipse] seizes whole level-1 nodes until its budget runs out, so on
   the tree the run really uses its round-0 corruptions are a union of
   full nodes plus part of at most one more.  Aimed at any other tree,
   the seized set scatters across this one's nodes. *)
let check_whole_leaves what comm =
  let tree = Comm.tree comm and net = Comm.net comm in
  let corrupt p = Ks_sim.Net.is_corrupt net p in
  let leaves = List.init (Tree.node_count tree ~level:1) Fun.id in
  let members node = Array.to_list (Tree.members tree ~level:1 ~node) in
  let full = List.filter (fun node -> List.for_all corrupt (members node)) leaves in
  let in_full p = List.exists (fun node -> List.mem p (members node)) full in
  let rest =
    List.filter (fun p -> corrupt p && not (in_full p)) (List.init (Tree.n tree) Fun.id)
  in
  Alcotest.(check bool) (what ^ ": corrupted someone") true
    (Ks_sim.Net.corrupt_count net > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: the %d corruptions outside full level-1 nodes fit in one"
       what (List.length rest))
    true
    (List.exists (fun node -> List.for_all (fun p -> List.mem p (members node)) rest)
       leaves)

let test_strategy_sees_run_tree () =
  let n = 64 in
  let params = Params.practical n in
  let inputs = Array.init n (fun i -> i land 1 = 0) in
  let r = Ks_attacks.everywhere ~params ~seed:3L ~inputs Ks_attacks.eclipse in
  check_whole_leaves "everywhere" r.Ks_core.Everywhere.ae.Ks_core.Ae_ba.comm;
  let r = Ks_attacks.ae ~params ~seed:3L ~inputs Ks_attacks.eclipse in
  check_whole_leaves "ae" r.Ks_core.Ae_ba.comm

(* --- bad shares inside the Berlekamp-Welch radius never flip --------- *)

let test_bad_share_inside_never_flips () =
  let n = 64 in
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let radius = Ks_attacks.leaf_radius ~params ~tree in
  Alcotest.(check bool) "correction radius is positive" true (radius >= 1);
  (* Corrupt exactly [radius] distinct processors, all drawn from leaf
     node 0.  The total is small enough that every node at every level —
     not just the leaves — stays inside its own Berlekamp-Welch radius,
     so the decoder either corrects the lies or reports failure; it can
     never land on a consistent shifted polynomial. *)
  let corrupt =
    let seen = Hashtbl.create 8 in
    Array.fold_left
      (fun acc p ->
        if List.length acc < radius && not (Hashtbl.mem seen p) then begin
          Hashtbl.replace seen p ();
          p :: acc
        end
        else acc)
      []
      (Tree.members tree ~level:1 ~node:0)
    |> List.rev
  in
  Alcotest.(check bool) "some processors corrupted" true (corrupt <> []);
  let strategy =
    Ks_sim.Adversary.make ~name:"inside-radius"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> corrupt)
      ()
  in
  let words = 3 in
  let comm =
    Comm.create ~params ~tree ~seed:11L ~behavior:Comm.Flip ~strategy
      ~budget:(List.length corrupt) ()
  in
  let arrays =
    Array.init n (fun i -> Array.init words (fun w -> (1000 * (w + 1)) + i))
  in
  Comm.deal_all comm ~arrays;
  let all = List.init n (fun i -> i) in
  let rec climb level =
    if level <= Tree.levels tree then begin
      Comm.reshare_up comm ~cands:all ~drop:[];
      climb (level + 1)
    end
  in
  climb 2;
  let levels = Tree.levels tree in
  let net = Comm.net comm in
  let cands =
    List.filteri
      (fun i _ -> i < 4)
      (List.filter (fun c -> not (Ks_sim.Net.is_corrupt net c)) all)
  in
  let view =
    Comm.open_ranges_view comm ~level:levels
      ~ranges:(List.map (fun c -> (c, 0, words)) cands)
  in
  (* Safety: a reconstructed value is either the true one or a detected
     failure (None) — with at most [radius] consistent liars per leaf,
     Berlekamp-Welch never lands on the shifted polynomial. *)
  List.iter
    (fun c ->
      let opened = ref 0 in
      for p = 0 to n - 1 do
        if not (Ks_sim.Net.is_corrupt net p) then
          match view ~cand:c ~member:p with
          | None -> ()
          | Some w ->
            incr opened;
            Alcotest.(check (array int))
              (Printf.sprintf "cand %d opened exactly right at member %d" c p)
              arrays.(c) w
      done;
      Alcotest.(check bool)
        (Printf.sprintf "cand %d opened for most good members (%d)" c !opened)
        true
        (!opened > 0))
    cands

(* --- registry and helper sanity -------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "twelve entries" 12 (List.length Ks_attacks.all);
  List.iter
    (fun a ->
      (match Ks_attacks.find a.Ks_attacks.name with
       | Some b -> Alcotest.(check string) "find" a.Ks_attacks.name b.Ks_attacks.name
       | None -> Alcotest.failf "find %s failed" a.Ks_attacks.name);
      Alcotest.(check bool)
        (Printf.sprintf "%s has a doc line" a.Ks_attacks.name)
        true
        (String.length a.Ks_attacks.doc > 10))
    Ks_attacks.all;
  Alcotest.(check (option string)) "unknown adversary" None
    (Option.map (fun a -> a.Ks_attacks.name) (Ks_attacks.find "nope"));
  let params = Params.practical 32 in
  Alcotest.(check int) "budget 0.36 walks past 1/3" 11
    (Ks_attacks.budget ~params ~fraction:0.36);
  Alcotest.(check int) "budget capped at n-1" 31
    (Ks_attacks.budget ~params ~fraction:1.0)

let () =
  Alcotest.run "attacks"
    [
      ( "fuzz",
        [
          Alcotest.test_case "payload decoder total" `Quick test_fuzz_payload;
          Alcotest.test_case "a2e decoder total" `Quick test_fuzz_a2e;
          Alcotest.test_case "wire readers total" `Quick test_fuzz_wire_readers;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "adversarial metering pinned" `Quick
            test_adversarial_metering_pinned;
          Alcotest.test_case "rushing send ordering" `Quick
            test_rushing_send_ordering;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "trace round-trip" `Quick
            test_quarantine_trace_roundtrip;
          Alcotest.test_case "equivocation evidence" `Quick
            test_equivocation_evidence;
          Alcotest.test_case "replayable" `Quick test_quarantine_replayable;
          Alcotest.test_case "honest identity" `Quick
            test_honest_quarantine_identity;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "strategy sees the run's tree" `Quick
            test_strategy_sees_run_tree;
          Alcotest.test_case "inside radius never flips" `Quick
            test_bad_share_inside_never_flips;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
    ]
