module Comm = Ks_core.Comm
module Params = Ks_core.Params
module Tree = Ks_topology.Tree
module Prng = Ks_stdx.Prng

let static_strategy budget =
  Ks_sim.Adversary.make ~name:"static"
    ~initial_corruptions:(fun rng ~n ~budget:b ->
      Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
    ()

let setup ?(n = 64) ?(budget = 0) ?(behavior = Comm.Follow) ?(words = 5) () =
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let comm =
    Comm.create ~params ~tree ~seed:11L ~behavior ~strategy:(static_strategy budget)
      ~budget ()
  in
  let arrays = Array.init n (fun i -> Array.init words (fun w -> (1000 * (w + 1)) + i)) in
  (params, tree, comm, arrays)

let test_structure_shape () =
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  let k1 = Tree.node_size tree ~level:1 in
  Alcotest.(check int) "level1 count = k1" k1 (Comm.Structure.count s ~level:1);
  for inst = 0 to k1 - 1 do
    Alcotest.(check int) "level1 pos = id" inst (Comm.Structure.pos s ~level:1 ~inst);
    Alcotest.(check int) "level1 no parent" (-1) (Comm.Structure.parent s ~level:1 ~inst)
  done;
  (* Children/parents are mutually consistent. *)
  for level = 1 to Tree.levels tree - 1 do
    for inst = 0 to Comm.Structure.count s ~level - 1 do
      Array.iter
        (fun child ->
          Alcotest.(check int) "parent pointer" inst
            (Comm.Structure.parent s ~level:(level + 1) ~inst:child))
        (Comm.Structure.children s ~level ~inst)
    done
  done

let test_structure_positions_consistent () =
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  for level = 1 to Tree.levels tree do
    let size = Tree.node_size tree ~level in
    let total = ref 0 in
    for pos = 0 to size - 1 do
      let insts = Comm.Structure.at_position s ~level ~pos in
      total := !total + Array.length insts;
      Array.iter
        (fun inst ->
          Alcotest.(check int) "at_position inverse" pos
            (Comm.Structure.pos s ~level ~inst))
        insts
    done;
    Alcotest.(check int) "all instances bucketed"
      (Comm.Structure.count s ~level) !total
  done

let test_structure_counts_multiply () =
  (* Each reshare splits every instance among its holder's uplinks, so
     counts multiply by the (uniform) uplink degree per level. *)
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  for level = 1 to Tree.levels tree - 1 do
    let d = Array.length (Tree.uplinks tree ~level ~member:0) in
    Alcotest.(check int)
      (Printf.sprintf "count(%d) = count(%d) * d" (level + 1) level)
      (Comm.Structure.count s ~level * d)
      (Comm.Structure.count s ~level:(level + 1))
  done

let test_deal_places_shares () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  Alcotest.(check (option int)) "live at level 1" (Some 1) (Comm.level_of comm ~cand:0);
  (* Every instance of every candidate holds a value (no corruption). *)
  let s = Comm.structure comm in
  let k1 = Comm.Structure.count s ~level:1 in
  for c = 0 to 7 do
    for inst = 0 to k1 - 1 do
      Alcotest.(check bool) "share held" true
        (Comm.held_value comm ~cand:c ~inst <> None)
    done
  done

let test_reshare_moves_level () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  let all = List.init 64 (fun i -> i) in
  Comm.reshare_up comm ~cands:all ~drop:[];
  Alcotest.(check (option int)) "level 2" (Some 2) (Comm.level_of comm ~cand:0)

let test_drop_erases () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  let keep = List.init 32 (fun i -> i) in
  let drop = List.init 32 (fun i -> 32 + i) in
  Comm.reshare_up comm ~cands:keep ~drop;
  Alcotest.(check (option int)) "dropped is gone" None (Comm.level_of comm ~cand:40);
  Alcotest.(check (option int)) "kept is live" (Some 2) (Comm.level_of comm ~cand:0)

let climb comm tree cands =
  let rec go level =
    if level < Tree.levels tree then begin
      Comm.reshare_up comm ~cands ~drop:[];
      go (level + 1)
    end
  in
  go 2

let open_and_check ~n ~budget ~behavior ~expect_all =
  let params, tree, comm, arrays = setup ~n ~budget ~behavior () in
  ignore params;
  Comm.deal_all comm ~arrays;
  let all = List.init n (fun i -> i) in
  Comm.reshare_up comm ~cands:all ~drop:[];
  climb comm tree all;
  let levels = Tree.levels tree in
  let net = Comm.net comm in
  (* Only good dealers' arrays are expected to open (a corrupt dealer may
     have dealt garbage or nothing). *)
  let cands =
    List.filteri (fun i _ -> i < 3)
      (List.filter (fun c -> not (Ks_sim.Net.is_corrupt net c)) all)
  in
  let view =
    Comm.open_ranges_view comm ~level:levels
      ~ranges:(List.map (fun c -> (c, 1, 2)) cands)
  in
  List.iter
    (fun c ->
      let correct = ref 0 and total = ref 0 in
      for p = 0 to n - 1 do
        if not (Ks_sim.Net.is_corrupt net p) then begin
          incr total;
          match view ~cand:c ~member:p with
          | Some w
            when Array.length w = 2 && w.(0) = 2000 + c && w.(1) = 3000 + c ->
            incr correct
          | Some _ | None -> ()
        end
      done;
      if expect_all then
        Alcotest.(check int) (Printf.sprintf "cand %d all correct" c) !total !correct
      else
        Alcotest.(check bool)
          (Printf.sprintf "cand %d mostly correct (%d/%d)" c !correct !total)
          true
          (float_of_int !correct >= 0.85 *. float_of_int !total))
    cands

let test_open_honest () = open_and_check ~n:64 ~budget:0 ~behavior:Comm.Follow ~expect_all:true

let test_open_crash_20 () =
  open_and_check ~n:64 ~budget:12 ~behavior:Comm.Silent ~expect_all:false

let test_open_garbage_25 () =
  open_and_check ~n:64 ~budget:16 ~behavior:Comm.Garbage ~expect_all:false

let test_secrecy_before_open () =
  (* Lemma 3(1): until a secret is sent down, an adversary holding every
     share visible to < 1/3 of each node learns nothing.  We check the
     mechanical precondition: no single processor's held values determine
     the secret — each instance value is a share under a threshold > 0. *)
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let s = Comm.structure comm in
  let k1 = Comm.Structure.count s ~level:1 in
  (* Values held are shares, not the secret itself. *)
  let cand = 3 in
  let secret_word = arrays.(cand).(0) in
  let leaks = ref 0 in
  for inst = 0 to k1 - 1 do
    match Comm.held_value comm ~cand ~inst with
    | Some w when w.(0) = secret_word -> incr leaks
    | Some _ | None -> ()
  done;
  (* A random share collides with the secret with probability ~2^-31. *)
  Alcotest.(check int) "no share equals the secret" 0 !leaks

let test_erasure_after_reshare () =
  (* After sendSecretUp the lower level is erased: corrupting a level-1
     holder afterwards must not yield level-1 share values.  We model the
     check through level_of/held_value: the candidate state no longer
     holds level-1 instances. *)
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let v_before = Comm.held_value comm ~cand:0 ~inst:0 in
  Alcotest.(check bool) "held before" true (v_before <> None);
  Comm.reshare_up comm ~cands:(List.init 64 (fun i -> i)) ~drop:[];
  (* Instance 0 now refers to level-2 numbering; the level-1 share values
     are gone from the store entirely (the array was replaced). *)
  Alcotest.(check (option int)) "live level moved" (Some 2) (Comm.level_of comm ~cand:0)

let test_open_rejects_bad_ranges () =
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let discard view =
    ignore (view : cand:int -> member:int -> Comm.word array option)
  in
  Alcotest.check_raises "wrong level"
    (Invalid_argument "Comm.open_ranges_view: candidate not live at this level")
    (fun () -> discard (Comm.open_ranges_view comm ~level:3 ~ranges:[ (0, 0, 1) ]));
  Comm.reshare_up comm ~cands:(List.init 64 (fun i -> i)) ~drop:[];
  Alcotest.check_raises "range out of bounds"
    (Invalid_argument "Comm.open_ranges_view: bad range") (fun () ->
      discard (Comm.open_ranges_view comm ~level:2 ~ranges:[ (0, 4, 3) ]));
  Alcotest.check_raises "duplicate candidate"
    (Invalid_argument "Comm.open_ranges_view: duplicate candidate") (fun () ->
      discard (Comm.open_ranges_view comm ~level:2 ~ranges:[ (0, 0, 1); (0, 1, 1) ]))

(* --- Acceptance rules of the five share hops ----------------------------

   One corrupt processor, otherwise following the protocol, queues shares
   just before a hop, each carrying a word outside Z_p:
   - one on a legitimate route, which [admit] must convict with exactly
     one out_of_field accusation, by its recipient;
   - every stray one, with in-range identifiers but the wrong sender,
     slot or subtree, which the route-legitimacy check must drop before
     [admit] sees it, so no quarantine event.
   Strays go to recipients other than the legitimate one, so a stray
   share that reached [admit] would show as a second accusation.  Each
   forge below lists [(legitimate, share)] pairs for its hop, all sent by
   [bad]. *)

let out_of_field = [| Ks_field.Zp.p; 1 |]
let env src dst payload = { Ks_sim.Types.src; dst; payload }
let upto k = List.init k Fun.id
let pairs k f = List.concat_map (fun i -> List.map (f i) (upto k)) (upto k)

(* The first candidate whose level-[level] node has [bad] as a member,
   with that node and [bad]'s position in it. *)
let node_with tree ~level bad =
  List.find_map
    (fun cand ->
      let node = Tree.leaf_ancestor tree ~leaf:cand ~level in
      let m = Tree.members tree ~level ~node in
      Option.map (fun q -> (cand, node, q)) (Array.find_index (Int.equal bad) m))
    (upto (Tree.n tree))
  |> Option.get

let forge_deal tree _ bad =
  let m = Tree.members tree ~level:1 ~node:bad in
  ( bad,
    pairs (Array.length m) (fun inst h ->
        (inst = h, env bad m.(h) (Comm.Deal { cand = bad; inst; words = out_of_field }))) )

let forge_share_up tree s bad =
  let cand, _, q = node_with tree ~level:1 bad in
  let up = Tree.members tree ~level:2 ~node:(Tree.leaf_ancestor tree ~leaf:cand ~level:2) in
  ( cand,
    List.map
      (fun inst ->
        ( Comm.Structure.parent s ~level:2 ~inst = q,
          env bad up.(Comm.Structure.pos s ~level:2 ~inst)
            (Comm.Share_up { cand; inst; words = out_of_field }) ))
      (upto (Comm.Structure.count s ~level:2)) )

(* [f node q] for every level-[level] node that has [bad] as a member, at
   position [q]. *)
let nodes_with tree ~level bad f =
  List.concat_map
    (fun node ->
      match Array.find_index (Int.equal bad) (Tree.members tree ~level ~node) with
      | Some q -> f node q
      | None -> [])
    (upto (Tree.node_count tree ~level))

(* Shares [bad] sends into another level-2 node's subtree are strays too,
   although it holds the sending instance there. *)
let forge_share_down tree s bad =
  let cand, enode, _ = node_with tree ~level:2 bad in
  ( cand,
    nodes_with tree ~level:2 bad (fun node q ->
        List.concat_map
          (fun inst ->
            let dpos =
              Comm.Structure.pos s ~level:1 ~inst:(Comm.Structure.parent s ~level:2 ~inst)
            in
            List.map
              (fun ch ->
                ( node = enode && Comm.Structure.pos s ~level:2 ~inst = q,
                  env bad (Tree.members tree ~level:1 ~node:ch).(dpos)
                    (Comm.Share_down
                       { cand; level = 2; node = ch; inst; off = 0; words = out_of_field }) ))
              (Tree.children tree ~level:2 ~node))
          (upto (Comm.Structure.count s ~level:2))) )

let forge_leaf_val tree _ bad =
  let cand, _, _ = node_with tree ~level:1 bad in
  let enode = Tree.leaf_ancestor tree ~leaf:cand ~level:2 in
  ( cand,
    nodes_with tree ~level:1 bad (fun leaf q ->
        let m = Tree.members tree ~level:1 ~node:leaf in
        pairs (Array.length m) (fun inst mp ->
            ( Tree.leaf_ancestor tree ~leaf ~level:2 = enode && inst = q,
              env bad m.(mp)
                (Comm.Leaf_val { cand; leaf; inst; off = 0; words = out_of_field }) ))) )

let forge_open_val tree _ bad =
  let cand, _, _ = node_with tree ~level:1 bad in
  let enode = Tree.leaf_ancestor tree ~leaf:cand ~level:2 in
  let em = Tree.members tree ~level:2 ~node:enode in
  ( cand,
    List.concat_map
      (fun leaf ->
        List.map
          (fun p ->
            ( Array.mem bad (Tree.members tree ~level:1 ~node:leaf),
              env bad em.(p) (Comm.Open_val { cand; leaf; off = 0; words = out_of_field }) ))
          (Array.to_list (Tree.ell_sources tree ~level:2 ~node:enode ~leaf)))
      (Tree.children tree ~level:2 ~node:enode) )

(* Rounds: deal 0, reshare 1, then the level-2 open's sendDown 2, leaf
   exchange 3 and sendOpen 4.  Shares queued during round r - 1 go out in
   round r. *)
let hop_injection (round, forge) =
  let n = 32 in
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let comm = ref None and queued = ref [] in
  let strategy =
    Ks_sim.Adversary.make ~name:"inject"
      ~initial_corruptions:Ks_sim.Adversary.uniform_random_set
      ~act:(fun view ->
        if view.Ks_sim.Types.view_round + 1 = round then
          Comm.queue_adversarial (Option.get !comm) !queued;
        [])
      ()
  in
  let accusations = ref [] in
  let hub =
    Ks_monitor.Hub.create
      [
        Ks_monitor.Monitor.make ~name:"accusations"
          ~on_event:(fun ~emit:_ -> function
            | Ks_monitor.Event.Quarantine { accuser; offender; evidence; _ } ->
              accusations := (accuser, offender, evidence) :: !accusations
            | _ -> ())
          ();
      ]
  in
  Ks_monitor.Hub.with_ambient hub (fun () ->
      let c =
        Comm.create ~params ~tree ~seed:11L ~behavior:Comm.Follow ~strategy ~budget:1 ()
      in
      comm := Some c;
      let bad = List.find (Ks_sim.Net.is_corrupt (Comm.net c)) (upto n) in
      let cand, shares = forge tree (Comm.structure c) bad in
      let legit =
        snd (List.find (fun (l, (e : _ Ks_sim.Types.envelope)) -> l && e.dst <> bad) shares)
      in
      queued :=
        legit
        :: List.filter_map
             (fun (l, (e : _ Ks_sim.Types.envelope)) ->
               if l || List.mem e.dst [ bad; legit.dst ] then None else Some e)
             shares;
      if round = 0 then Comm.queue_adversarial c !queued;
      Comm.deal_all c ~arrays:(Array.init n (fun i -> [| i; 2 * i |]));
      Comm.reshare_up c ~cands:(upto n) ~drop:[];
      let view = Comm.open_ranges_view c ~level:2 ~ranges:[ (cand, 0, 2) ] in
      ignore (view : cand:int -> member:int -> Comm.word array option);
      Alcotest.(check int) "one quarantine event" 1 (Comm.quarantine_events c);
      Alcotest.(check (list (triple int int string)))
        "the legitimate recipient accuses, out_of_field"
        [ (legit.dst, bad, "out_of_field") ]
        !accusations)

let test_hop_acceptance () =
  List.iter hop_injection
    [
      (0, forge_deal);
      (1, forge_share_up);
      (2, forge_share_down);
      (3, forge_leaf_val);
      (4, forge_open_val);
    ]

(* --- sendOpen report stuffing ---------------------------------------------

   n = 64, [Silent] static corruption.  In the sendOpen round of a level-2
   open, every corrupt member of a leaf under the candidate's node repeats
   one forged report 30 times to each election member listening to that
   leaf.  A leaf's majority must count each (member, leaf, sender) report
   once, so no good election member adopts the forged value, with or
   without quarantine. *)

let stuffed_open ~budget ~quarantine =
  let n = 64 in
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let forged = [| 7; 7 |] in
  let comm = ref None and stuffing = ref [] in
  let strategy =
    Ks_sim.Adversary.make ~name:"stuff"
      ~initial_corruptions:(fun rng ~n ~budget:b ->
        Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
      ~act:(fun view ->
        (* Rounds: deal 0, reshare 1, sendDown 2, leaf exchange 3, sendOpen 4. *)
        if view.Ks_sim.Types.view_round + 1 = 4 then
          Comm.queue_adversarial (Option.get !comm) !stuffing;
        [])
      ()
  in
  let c =
    Comm.create ~quarantine ~params ~tree ~seed:11L ~behavior:Comm.Silent ~strategy ~budget ()
  in
  comm := Some c;
  let net = Comm.net c in
  let cand = List.find (fun p -> not (Ks_sim.Net.is_corrupt net p)) (upto n) in
  let enode = Tree.leaf_ancestor tree ~leaf:cand ~level:2 in
  let emembers = Tree.members tree ~level:2 ~node:enode in
  stuffing :=
    List.concat_map
      (fun leaf ->
        List.concat_map
          (fun src ->
            List.concat_map
              (fun em ->
                List.init 30 (fun _ ->
                    env src emembers.(em) (Comm.Open_val { cand; leaf; off = 0; words = forged })))
              (Array.to_list (Tree.ell_sources tree ~level:2 ~node:enode ~leaf)))
          (List.filter (Ks_sim.Net.is_corrupt net)
             (Array.to_list (Tree.members tree ~level:1 ~node:leaf))))
      (Tree.children tree ~level:2 ~node:enode);
  Alcotest.(check bool) "some forged reports" true (!stuffing <> []);
  Comm.deal_all c ~arrays:(Array.init n (fun i -> [| i; 2 * i |]));
  Comm.reshare_up c ~cands:(upto n) ~drop:[];
  let view = Comm.open_ranges_view c ~level:2 ~ranges:[ (cand, 0, 2) ] in
  let adopted =
    List.filter
      (fun em ->
        (not (Ks_sim.Net.is_corrupt net emembers.(em)))
        && view ~cand ~member:em = Some forged)
      (upto (Array.length emembers))
  in
  Alcotest.(check (list int))
    (Printf.sprintf "no good member adopts the forged value (%d corrupt, quarantine %b)"
       budget quarantine)
    [] adopted

let test_open_report_stuffing () =
  List.iter
    (fun budget ->
      List.iter (fun quarantine -> stuffed_open ~budget ~quarantine) [ true; false ])
    [ 12; 16; 20 ]

(* --- Layout invariance ----------------------------------------------------

   What an open sends, decodes and returns does not depend on the order in
   which [ranges] lists the candidates: views, per-processor bits and
   decode failures match for sorted and shuffled ranges.  [Garbage]
   corruption makes the order of corrupt sends visible in the RNG stream;
   the choppy fault plan with retries exercises the re-request path. *)

let open_outcome ~retries ranges =
  let n = 32 in
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let comm =
    Comm.create ~retries ~params ~tree ~seed:11L ~behavior:Comm.Garbage
      ~strategy:(static_strategy 1) ~budget:1 ()
  in
  Comm.deal_all comm ~arrays:(Array.init n (fun i -> Array.init 4 (fun w -> (100 * w) + i)));
  let cands = List.sort Int.compare (List.map (fun (c, _, _) -> c) ranges) in
  Comm.reshare_up comm ~cands ~drop:[];
  climb comm tree cands;
  let level = Tree.levels tree in
  let view = Comm.open_ranges_view comm ~level ~ranges in
  let meter = Ks_sim.Net.meter (Comm.net comm) in
  ( List.concat_map
      (fun cand -> List.init (Tree.node_size tree ~level) (fun member -> view ~cand ~member))
      cands,
    List.init n (Ks_sim.Meter.sent_bits meter),
    Comm.decode_failures comm )

let test_layout_invariance () =
  let ranges = List.map (fun c -> (c, c mod 3, 1 + (c mod 2))) [ 3; 9; 14; 17; 22; 25; 30; 31 ] in
  let shuffled =
    let a = Array.of_list ranges in
    Prng.shuffle (Prng.create 5L) a;
    Array.to_list a
  in
  Alcotest.(check bool) "shuffled differs" true (shuffled <> ranges);
  let check label ~retries =
    let views, bits, fails = open_outcome ~retries ranges in
    let views', bits', fails' = open_outcome ~retries shuffled in
    Alcotest.(check (list (option (array int)))) (label ^ ": views") views views';
    Alcotest.(check (list int)) (label ^ ": bits per processor") bits bits';
    Alcotest.(check int) (label ^ ": decode failures") fails fails'
  in
  check "unfaulted" ~retries:0;
  let choppy =
    match Ks_faults.Plan.of_string_or_preset "choppy" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  Ks_faults.Plan.with_plan choppy (fun () -> check "choppy" ~retries:2)

let sample_payloads =
  [
    Comm.Deal { cand = 0; inst = 3; words = [| 1; 2147483646; 7 |] };
    Comm.Share_up { cand = 300; inst = 12345; words = [||] };
    Comm.Share_down
      { cand = 5; level = 3; node = 17; inst = 999; off = 2; words = [| 42 |] };
    Comm.Leaf_val { cand = 1; leaf = 63; inst = 9; off = 0; words = [| 0; 0 |] };
    Comm.Open_val { cand = 2; leaf = 0; off = 30; words = [| 123456789 |] };
    Comm.Vote { level = 2; node = 4; ba = 11; vote = true };
    Comm.Votes { level = 3; node = 0; packed = Bytes.of_string "\x0f\xf0" };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun payload ->
      match Comm.decode_payload (Comm.encode_payload payload) with
      | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = payload)
      | Error e -> Alcotest.fail (Ks_stdx.Wire.invalid_to_string e))
    sample_payloads

let test_codec_length_exact () =
  List.iter
    (fun payload ->
      Alcotest.(check int) "encoded_length = |encode|"
        (Bytes.length (Comm.encode_payload payload))
        (Comm.encoded_length payload))
    sample_payloads

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "bad tag" true
    (Comm.decode_payload (Bytes.of_string "\xff\x01") = Error (Ks_stdx.Wire.Bad_tag 0xff));
  Alcotest.(check bool) "trailing junk" true
    (Comm.decode_payload
       (Bytes.cat (Comm.encode_payload (Comm.Vote { level = 1; node = 0; ba = 0; vote = false }))
          (Bytes.of_string "x"))
     = Error (Ks_stdx.Wire.Trailing 1));
  Alcotest.(check bool) "empty" true
    (Comm.decode_payload Bytes.empty = Error Ks_stdx.Wire.Truncated)

let () =
  Alcotest.run "comm"
    [
      ( "structure",
        [
          Alcotest.test_case "shape" `Quick test_structure_shape;
          Alcotest.test_case "positions" `Quick test_structure_positions_consistent;
          Alcotest.test_case "counts multiply" `Quick test_structure_counts_multiply;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "deal places shares" `Quick test_deal_places_shares;
          Alcotest.test_case "reshare moves level" `Quick test_reshare_moves_level;
          Alcotest.test_case "drop erases" `Quick test_drop_erases;
          Alcotest.test_case "secrecy before open" `Quick test_secrecy_before_open;
          Alcotest.test_case "erasure after reshare" `Quick test_erasure_after_reshare;
          Alcotest.test_case "bad ranges" `Quick test_open_rejects_bad_ranges;
          Alcotest.test_case "hop acceptance rules" `Quick test_hop_acceptance;
          Alcotest.test_case "sendOpen report stuffing" `Quick test_open_report_stuffing;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "length exact" `Quick test_codec_length_exact;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "open",
        [
          Alcotest.test_case "honest" `Slow test_open_honest;
          Alcotest.test_case "crash 20%" `Slow test_open_crash_20;
          Alcotest.test_case "garbage 25%" `Slow test_open_garbage_25;
          Alcotest.test_case "layout invariance" `Slow test_layout_invariance;
        ] );
    ]
