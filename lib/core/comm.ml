module Prng = Ks_stdx.Prng
module Tree = Ks_topology.Tree
module Zp = Ks_field.Zp
module Sh = Ks_shamir.Shamir.Make (Ks_field.Zp)
open Ks_sim.Types

type word = int

type behavior = Follow | Silent | Garbage | Flip | Equivocate

type payload =
  | Deal of { cand : int; inst : int; words : word array }
  | Share_up of { cand : int; inst : int; words : word array }
  | Share_down of {
      cand : int;
      level : int;
      node : int;
      inst : int;
      off : int;
      words : word array;
    }
  | Leaf_val of { cand : int; leaf : int; inst : int; off : int; words : word array }
  | Open_val of { cand : int; leaf : int; off : int; words : word array }
  | Vote of { level : int; node : int; ba : int; vote : bool }
  | Votes of { level : int; node : int; packed : Bytes.t }

(* Binary codec: tag byte, varint identifiers, fixed 32-bit words.  The
   meter charges the exact encoded size, computed arithmetically so that
   metering allocates nothing; test_comm pins encoded_length to the real
   encoder output. *)

let varint_len v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go v 1

let words_len words = varint_len (Array.length words) + (4 * Array.length words)

let encoded_length = function
  | Deal { cand; inst; words } | Share_up { cand; inst; words } ->
    1 + varint_len cand + varint_len inst + words_len words
  | Share_down { cand; level; node; inst; off; words } ->
    1 + varint_len cand + varint_len level + varint_len node + varint_len inst
    + varint_len off + words_len words
  | Leaf_val { cand; leaf; inst; off; words } ->
    1 + varint_len cand + varint_len leaf + varint_len inst + varint_len off
    + words_len words
  | Open_val { cand; leaf; off; words } ->
    1 + varint_len cand + varint_len leaf + varint_len off + words_len words
  | Vote { level; node; ba; vote = _ } ->
    1 + varint_len level + varint_len node + varint_len ba + 1
  | Votes { level; node; packed } ->
    1 + varint_len level + varint_len node + varint_len (Bytes.length packed)
    + Bytes.length packed

module W = Ks_stdx.Wire.Writer
module R = Ks_stdx.Wire.Reader

let write_words w words =
  W.varint w (Array.length words);
  Array.iter (W.u32 w) words

let read_words r =
  let len = R.varint r in
  (* Each word is a fixed u32: a length claiming more words than the
     remaining bytes could hold is malformed.  Checking before the
     allocation keeps a forged length prefix from forcing a huge
     [Array.init] (found by the decoder fuzzer). *)
  if len < 0 || len > R.remaining r / 4 then raise R.Truncated;
  Array.init len (fun _ -> R.u32 r)

let encode_payload payload =
  let w = W.create () in
  (match payload with
   | (Deal { cand; inst; words } | Share_up { cand; inst; words }) as p ->
     W.byte w (match p with Deal _ -> 0 | _ -> 1);
     W.varint w cand; W.varint w inst; write_words w words
   | Share_down { cand; level; node; inst; off; words } ->
     W.byte w 2; W.varint w cand; W.varint w level; W.varint w node;
     W.varint w inst; W.varint w off; write_words w words
   | Leaf_val { cand; leaf; inst; off; words } ->
     W.byte w 3; W.varint w cand; W.varint w leaf; W.varint w inst;
     W.varint w off; write_words w words
   | Open_val { cand; leaf; off; words } ->
     W.byte w 4; W.varint w cand; W.varint w leaf; W.varint w off;
     write_words w words
   | Vote { level; node; ba; vote } ->
     W.byte w 5; W.varint w level; W.varint w node; W.varint w ba; W.bool w vote
   | Votes { level; node; packed } ->
     W.byte w 6; W.varint w level; W.varint w node; W.bytes w packed);
  W.contents w

let decode_payload data =
  Ks_stdx.Wire.decode data (fun r ->
      match R.byte r with
      | (0 | 1) as tag ->
        let cand = R.varint r in
        let inst = R.varint r in
        let words = read_words r in
        if tag = 0 then Deal { cand; inst; words } else Share_up { cand; inst; words }
      | 2 ->
        let cand = R.varint r in
        let level = R.varint r in
        let node = R.varint r in
        let inst = R.varint r in
        let off = R.varint r in
        Share_down { cand; level; node; inst; off; words = read_words r }
      | 3 ->
        let cand = R.varint r in
        let leaf = R.varint r in
        let inst = R.varint r in
        let off = R.varint r in
        Leaf_val { cand; leaf; inst; off; words = read_words r }
      | 4 ->
        let cand = R.varint r in
        let leaf = R.varint r in
        let off = R.varint r in
        Open_val { cand; leaf; off; words = read_words r }
      | 5 ->
        let level = R.varint r in
        let node = R.varint r in
        let ba = R.varint r in
        Vote { level; node; ba; vote = R.bool r }
      | 6 ->
        let level = R.varint r in
        let node = R.varint r in
        Votes { level; node; packed = R.bytes r }
      | tag -> R.fail (Ks_stdx.Wire.Bad_tag tag))

let payload_bits (p : Params.t) payload =
  p.Params.header_bits + (8 * encoded_length payload)

module Structure = struct
  type t = {
    counts : int array;
    pos : int array array; (* .(l-1).(inst) = holding position *)
    par : int array array; (* .(l-1).(inst) = parent instance, -1 at level 1 *)
    kids : int array array array; (* .(l-1).(inst) = child ids at l+1 *)
    at_pos : int array array array; (* .(l-1).(position) = instance ids *)
  }

  let build tree =
    let levels = Tree.levels tree in
    let counts = Array.make levels 0 in
    let pos = Array.make levels [||] in
    let par = Array.make levels [||] in
    let kids = Array.make levels [||] in
    let k1 = Tree.node_size tree ~level:1 in
    counts.(0) <- k1;
    pos.(0) <- Array.init k1 (fun i -> i);
    par.(0) <- Array.make k1 (-1);
    for l = 1 to levels - 1 do
      (* Instances at level l+1: one per (instance at l, uplink slot). *)
      let c = counts.(l - 1) in
      let next_pos = ref [] and next_par = ref [] in
      let next_count = ref 0 in
      let kid_arrays =
        Array.init c (fun i ->
            let ups = Tree.uplinks tree ~level:l ~member:pos.(l - 1).(i) in
            let ids =
              Array.map
                (fun pp ->
                  let id = !next_count in
                  incr next_count;
                  next_pos := pp :: !next_pos;
                  next_par := i :: !next_par;
                  id)
                ups
            in
            ids)
      in
      kids.(l - 1) <- kid_arrays;
      counts.(l) <- !next_count;
      pos.(l) <- Array.of_list (List.rev !next_pos);
      par.(l) <- Array.of_list (List.rev !next_par)
    done;
    kids.(levels - 1) <- Array.make counts.(levels - 1) [||];
    let at_pos =
      Array.init levels (fun li ->
          let size = Tree.node_size tree ~level:(li + 1) in
          let buckets = Array.make size [] in
          Array.iteri (fun i p -> buckets.(p) <- i :: buckets.(p)) pos.(li);
          Array.map (fun l -> Array.of_list (List.rev l)) buckets)
    in
    { counts; pos; par; kids; at_pos }

  let count t ~level = t.counts.(level - 1)
  let pos t ~level ~inst = t.pos.(level - 1).(inst)
  let parent t ~level ~inst = t.par.(level - 1).(inst)
  let children t ~level ~inst = t.kids.(level - 1).(inst)
  let at_position t ~level ~pos = t.at_pos.(level - 1).(pos)
end

type cand_state = {
  mutable live_level : int; (* 0 = not dealt, -1 = dropped *)
  mutable held : word array option array;
}

type t = {
  params : Params.t;
  tree : Tree.t;
  net : payload Ks_sim.Net.t;
  structure : Structure.t;
  behavior : behavior;
  pending : payload envelope list ref;
  cands : cand_state array;
  vec_len : int array;
  garbage_rng : Prng.t;
  (* Graceful degradation: robust-decode failures are detected (counted)
     rather than silently dropped, and may trigger up to [max_retries]
     re-request rounds each (see [hop]). *)
  max_retries : int;
  mutable decode_failures : int;
  mutable retries_used : int;
  (* Quarantine: per-accuser set of senders caught provably misbehaving
     (share word outside Z_p, wrong public length, equivocation witnessed
     on a private channel).  A quarantined sender's messages are ignored
     by that accuser from the moment of the accusation.  Honest and
     behavior-policy traffic never produces evidence (Garbage and Flip
     stay in-field and length-preserving), so enabling quarantine leaves
     unattacked runs byte-identical. *)
  quarantine_on : bool;
  quarantined : (int, unit) Hashtbl.t array;
  mutable quarantine_events : int;
}

let create ?(retries = 0) ?(quarantine = true) ~params ~tree ~seed ~behavior
    ~strategy ?budget () =
  let pending = ref [] in
  let wrapped =
    {
      strategy with
      act =
        (fun view ->
          let staged = !pending in
          pending := [];
          strategy.act view @ staged);
    }
  in
  let net =
    Ks_sim.Net.create ~label:"tree" ~seed ~n:params.Params.n
      ~budget:(Option.value ~default:(Params.corruption_budget params) budget)
      ~msg_bits:(payload_bits params) ~strategy:wrapped ()
  in
  {
    params;
    tree;
    net;
    structure = Structure.build tree;
    behavior;
    pending;
    cands =
      Array.init params.Params.n (fun _ -> { live_level = 0; held = [||] });
    vec_len = Array.make params.Params.n 0;
    garbage_rng = Prng.split (Ks_sim.Net.rng net);
    max_retries = retries;
    decode_failures = 0;
    retries_used = 0;
    quarantine_on = quarantine;
    quarantined = Array.init params.Params.n (fun _ -> Hashtbl.create 4);
    quarantine_events = 0;
  }

let net t = t.net
let decode_failures t = t.decode_failures
let retries_used t = t.retries_used
let quarantine_events t = t.quarantine_events

let is_quarantined t ~accuser ~offender =
  t.quarantine_on && Hashtbl.mem t.quarantined.(accuser) offender
let tree t = t.tree
let structure t = t.structure
let params t = t.params

let queue_adversarial t msgs = t.pending := msgs @ !(t.pending)

let exchange t msgs = Ks_sim.Net.exchange t.net msgs

let level_of t ~cand =
  let l = t.cands.(cand).live_level in
  if l <= 0 then None else Some l

let held_value t ~cand ~inst =
  let st = t.cands.(cand) in
  if inst < Array.length st.held then st.held.(inst) else None

let node_of t ~cand ~level = Tree.leaf_ancestor t.tree ~leaf:cand ~level

(* The member of [node] holding instance [inst] of [level]. *)
let holder t ~level ~node ~inst =
  (Tree.members t.tree ~level ~node).(Structure.pos t.structure ~level ~inst)

(* What a corrupted holder puts on the wire in place of [words].  Only
   [Equivocate] looks at the destination: it tells a different (but
   internally consistent and in-field) lie to each parity class, the
   rushing-equivocation primitive.  The other behaviors ignore [dst] and
   in particular [Garbage] draws exactly once per routed message, so
   adding [Equivocate] changed no existing RNG stream. *)
let corrupt_words t ~dst words =
  match t.behavior with
  | Follow -> Some (Array.copy words)
  | Silent -> None
  | Garbage -> Some (Array.map (fun _ -> Zp.random t.garbage_rng) words)
  | Flip -> Some (Array.map (fun w -> Zp.add w Zp.one) words)
  | Equivocate ->
    let delta = if dst land 1 = 0 then Zp.one else Zp.add Zp.one Zp.one in
    Some (Array.map (fun w -> Zp.add w delta) words)

(* --- Hardened acceptance ------------------------------------------------

   [admit] is the single gate every share-carrying payload passes before
   a hop may use it, called only after the hop's route-legitimacy checks
   (right identifier ranges, right sender for the slot, right recipient)
   have succeeded — so a failure here is *provable*
   misbehaviour by the sender, not a routing accident, and earns it a
   place on the accuser's quarantine list:

   - ["wrong_length"]: the word count differs from the publicly known
     vector length for the slot;
   - ["out_of_field"]: a word is not a canonical Z_p representative;
   - ["equivocation"]: a second, conflicting value for the same slot from
     the same sender on the accuser's private channel ([witness] holds
     the first value per (accuser, sender, slot); duplicated deliveries
     of the identical value — benign [dup] faults, retry resends — do
     not conflict).

   With quarantine off the gate degrades to exactly the pre-hardening
   length check: no evidence, no events, no rejections beyond length. *)

let words_equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

let accuse t ~accuser ~offender ~evidence ~info =
  (* A processor never quarantines itself: a corrupt sender that is also
     the collector would otherwise record a meaningless self-conviction
     (the malformed message is still rejected by [admit]). *)
  if accuser <> offender && not (Hashtbl.mem t.quarantined.(accuser) offender)
  then begin
    Hashtbl.replace t.quarantined.(accuser) offender ();
    t.quarantine_events <- t.quarantine_events + 1;
    Ks_sim.Net.quarantine t.net ~accuser ~offender ~evidence ~info
  end

let admit t ~witness accuser e key ~slot ~len words =
  let src = e.src in
  if not t.quarantine_on then Array.length words = len
  else if Hashtbl.mem t.quarantined.(accuser) src then false
  else if Array.length words <> len then begin
    accuse t ~accuser ~offender:src ~evidence:"wrong_length"
      ~info:(Array.length words);
    false
  end
  else
    match Array.find_opt (fun w -> w < 0 || w >= Zp.p) words with
    | Some w ->
      accuse t ~accuser ~offender:src ~evidence:"out_of_field" ~info:w;
      false
    | None -> (
      let wkey = (accuser, src, key) in
      match Hashtbl.find_opt witness wkey with
      | Some prev when not (words_equal prev words) ->
        accuse t ~accuser ~offender:src ~evidence:"equivocation" ~info:slot;
        false
      | Some _ -> true
      | None ->
        Hashtbl.add witness wkey (Array.copy words);
        true)

let word_majority vectors =
  match vectors with
  | [] -> None
  | first :: _ ->
    let len = Array.length first in
    let vectors = List.filter (fun v -> Array.length v = len) vectors in
    let out = Array.make len 0 in
    for w = 0 to len - 1 do
      let counts = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts v.(w)) in
          Hashtbl.replace counts v.(w) (c + 1))
        vectors;
      let best = ref None in
      Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_cmp
        (fun value c ->
          match !best with
          | None -> best := Some (value, c)
          | Some (bv, bc) ->
            if c > bc || (c = bc && value < bv) then best := Some (value, c))
        counts;
      match !best with Some (v, _) -> out.(w) <- v | None -> ()
    done;
    Some out

(* --- The share hop -----------------------------------------------------

   All five share payloads (Deal, Share_up, Share_down, Leaf_val,
   Open_val) move one hop along tree links the same way (§3.2.3).
   [sends send] lists the shares; [send] routes each one, direct for good
   senders, via the adversary queue under the behavior policy for
   corrupted ones.  After one [exchange], [accept p e admit] checks the
   route of each envelope [e] delivered to [p] (identifier ranges,
   expected sender and recipient) and only then calls [admit p e key
   ~slot ~len words], aggregating [words] when it returns true.

   [decode ()] returns the result and the number of keys that failed (0
   for hops that do not decode).  While keys fail, at most [max_retries]
   times, the same exchange is re-run — under a benign-fault plan, shares
   lost to omission get fresh delivery draws — and everything is decoded
   again; failures left are counted as detected degradation. *)
let hop t ~sends ~accept ~decode =
  let msgs = ref [] in
  sends (fun ~src ~dst ~payload_of words ->
      if not (Ks_sim.Net.is_corrupt t.net src) then
        msgs := { src; dst; payload = payload_of (Array.copy words) } :: !msgs
      else
        match corrupt_words t ~dst words with
        | Some w -> queue_adversarial t [ { src; dst; payload = payload_of w } ]
        | None -> ());
  let msgs = !msgs in
  let admit = admit t ~witness:(Hashtbl.create 1024) in
  let collect inboxes =
    Array.iteri (fun p inbox -> List.iter (fun e -> accept p e admit) inbox) inboxes
  in
  let rec settle attempt =
    let result, failed = decode () in
    if failed = 0 || attempt >= t.max_retries then begin
      t.decode_failures <- t.decode_failures + failed;
      result
    end
    else begin
      t.retries_used <- t.retries_used + 1;
      collect (exchange t msgs);
      settle (attempt + 1)
    end
  in
  collect (exchange t msgs);
  settle 0

(* Keep the first piece per evaluation point [x] under [key]. *)
let add_piece pieces key x words =
  let existing = Option.value ~default:[] (Hashtbl.find_opt pieces key) in
  if not (List.mem_assoc x existing) then Hashtbl.replace pieces key ((x, words) :: existing)

(* Robust-decode each key's pieces, in key order: the decoded values and
   the number of keys that failed. *)
let decode_pieces ~threshold pieces =
  let decoded = Hashtbl.create 1024 in
  let failed = ref 0 in
  Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.triple_cmp
    (fun key holder_pieces ->
      match
        Sh.reconstruct_vectors ~failures:failed ~threshold:(threshold key) holder_pieces
      with
      | Some v -> Hashtbl.replace decoded key v
      | None -> ())
    pieces;
  (decoded, !failed)

let push tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

(* [f key v] for each key, in key order, whose vectors have a word
   majority [v]. *)
let majorities ~cmp tbl f =
  Ks_stdx.Dtbl.iter_sorted ~cmp
    (fun key vectors -> match word_majority vectors with Some v -> f key v | None -> ())
    tbl

(* Deal and Share_up keep the first admitted share of each instance. *)
let keep t admit p e held cand inst words =
  if admit p e (cand, inst) ~slot:inst ~len:t.vec_len.(cand) words && held.(inst) = None
  then held.(inst) <- Some words

let deal_all t ~arrays =
  let n = t.params.Params.n in
  if Array.length arrays <> n then invalid_arg "Comm.deal_all: need one array per processor";
  let k1 = Tree.node_size t.tree ~level:1 in
  let t1 = Params.share_threshold t.params ~holders:k1 in
  hop t ~decode:(fun () -> ((), 0))
    ~sends:(fun send ->
      for c = 0 to n - 1 do
        t.vec_len.(c) <- Array.length arrays.(c);
        t.cands.(c).live_level <- 1;
        t.cands.(c).held <- Array.make k1 None;
        let leaf_members = Tree.members t.tree ~level:1 ~node:c in
        let per_holder =
          Sh.deal_vector (Ks_sim.Net.proc_rng t.net c) ~threshold:t1 ~holders:k1
            arrays.(c)
        in
        for h = 0 to k1 - 1 do
          send ~src:c ~dst:leaf_members.(h)
            ~payload_of:(fun words -> Deal { cand = c; inst = h; words })
            (Array.map (fun s -> s.Sh.value) per_holder.(h))
        done
      done)
    ~accept:(fun p e admit ->
      match e.payload with
      | Deal { cand; inst; words }
        when cand >= 0 && cand < n && inst >= 0 && inst < k1 && e.src = cand
             && (Tree.members t.tree ~level:1 ~node:cand).(inst) = p ->
        keep t admit p e t.cands.(cand).held cand inst words
      | _ -> ())

let reshare_up t ~cands ~drop =
  (match cands with
  | [] -> ()
  | first :: _ ->
    let lvl = t.cands.(first).live_level in
    List.iter
      (fun c ->
        if t.cands.(c).live_level <> lvl then
          invalid_arg "Comm.reshare_up: candidates at different levels")
      cands;
    if lvl < 1 then invalid_arg "Comm.reshare_up: candidate not live";
    let next = lvl + 1 in
    if next > Tree.levels t.tree then invalid_arg "Comm.reshare_up: already at root";
    let count_cur = Structure.count t.structure ~level:lvl in
    let count_next = Structure.count t.structure ~level:next in
    let fresh = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace fresh c (Array.make count_next None)) cands;
    hop t ~decode:(fun () -> ((), 0))
      ~sends:(fun send ->
        List.iter
          (fun c ->
            let node = node_of t ~cand:c ~level:lvl in
            let parent_members =
              Tree.members t.tree ~level:next ~node:(node_of t ~cand:c ~level:next)
            in
            for inst = 0 to count_cur - 1 do
              match t.cands.(c).held.(inst) with
              | None -> ()
              | Some v ->
                let p = Structure.pos t.structure ~level:lvl ~inst in
                let sender = holder t ~level:lvl ~node ~inst in
                let xs = Tree.uplinks t.tree ~level:lvl ~member:p in
                let children = Structure.children t.structure ~level:lvl ~inst in
                let th = Params.share_threshold t.params ~holders:(Array.length xs) in
                let per_holder =
                  Sh.deal_vector_at (Ks_sim.Net.proc_rng t.net sender) ~threshold:th ~xs v
                in
                Array.iteri
                  (fun j words ->
                    let inst' = children.(j) in
                    send ~src:sender ~dst:parent_members.(xs.(j))
                      ~payload_of:(fun words -> Share_up { cand = c; inst = inst'; words })
                      words)
                  per_holder
            done)
          cands)
      ~accept:(fun p e admit ->
        match e.payload with
        | Share_up { cand; inst; words }
          when Hashtbl.mem fresh cand && inst >= 0 && inst < count_next ->
          let parent_inst = Structure.parent t.structure ~level:next ~inst in
          if
            holder t ~level:next ~node:(node_of t ~cand ~level:next) ~inst = p
            && holder t ~level:lvl ~node:(node_of t ~cand ~level:lvl) ~inst:parent_inst = e.src
          then keep t admit p e (Hashtbl.find fresh cand) cand inst words
        | _ -> ());
    List.iter
      (fun c ->
        t.cands.(c).live_level <- next;
        t.cands.(c).held <- Hashtbl.find fresh c)
      cands);
  List.iter
    (fun c ->
      t.cands.(c).live_level <- -1;
      t.cands.(c).held <- [||])
    drop

let open_ranges_view t ~level ~ranges =
  if level < 2 then invalid_arg "Comm.open_ranges_view: level must be >= 2";
  let range_tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, off, len) ->
      if t.cands.(c).live_level <> level then
        invalid_arg "Comm.open_ranges_view: candidate not live at this level";
      if off < 0 || len < 1 || off + len > t.vec_len.(c) then
        invalid_arg "Comm.open_ranges_view: bad range";
      if Hashtbl.mem range_tbl c then
        invalid_arg "Comm.open_ranges_view: duplicate candidate";
      Hashtbl.replace range_tbl c (off, len))
    ranges;
  (* [range_len cand off] — the opened length when [off] is [cand]'s
     range offset, -1 when the payload is not part of this open. *)
  let range_len cand off =
    match Hashtbl.find range_tbl cand with
    | eoff, elen when eoff = off -> elen
    | _ -> -1
    | exception Not_found -> -1
  in
  (* Live values at the election level, restricted to the ranges. *)
  let cur = ref (Hashtbl.create 1024) in
  List.iter
    (fun (c, off, len) ->
      let node = node_of t ~cand:c ~level in
      Array.iteri
        (fun inst v ->
          match v with
          | Some v -> Hashtbl.replace !cur (c, node, inst) (Array.sub v off len)
          | None -> ())
        t.cands.(c).held)
    ranges;
  (* sendDown: walk the shares to the leaves, reconstructing one depth per
     round.  Pieces are collected per (cand, child node, parent instance). *)
  for l = level downto 2 do
    let pieces = Hashtbl.create 1024 in
    cur :=
      hop t
        ~sends:(fun send ->
          Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.triple_cmp
            (fun (c, node, inst) words ->
              let sender = holder t ~level:l ~node ~inst in
              let pinst = Structure.parent t.structure ~level:l ~inst in
              let off, _ = Hashtbl.find range_tbl c in
              List.iter
                (fun ch ->
                  send ~src:sender ~dst:(holder t ~level:(l - 1) ~node:ch ~inst:pinst)
                    ~payload_of:(fun words ->
                      Share_down { cand = c; level = l; node = ch; inst; off; words })
                    words)
                (Tree.children t.tree ~level:l ~node))
            !cur)
        ~accept:(fun p e admit ->
          match e.payload with
          | Share_down { cand; level = ml; node = ch; inst; off; words }
            when ml = l && inst >= 0
                 && inst < Structure.count t.structure ~level:l
                 && ch >= 0
                 && ch < Tree.node_count t.tree ~level:(l - 1) ->
            let len = range_len cand off in
            let pinst = Structure.parent t.structure ~level:l ~inst in
            let pnode = Tree.parent t.tree ~level:(l - 1) ~node:ch in
            if
              len > 0
              && holder t ~level:(l - 1) ~node:ch ~inst:pinst = p
              && holder t ~level:l ~node:pnode ~inst = e.src
              && admit p e (cand, ch, inst) ~slot:inst ~len words
            then add_piece pieces (cand, ch, pinst) (Structure.pos t.structure ~level:l ~inst) words
          | _ -> ())
        ~decode:(fun () ->
          decode_pieces pieces ~threshold:(fun (_, _, pinst) ->
              let dpos = Structure.pos t.structure ~level:(l - 1) ~inst:pinst in
              let holders = Tree.uplinks t.tree ~level:(l - 1) ~member:dpos in
              Params.share_threshold t.params ~holders:(Array.length holders)))
  done;
  (* Leaf exchange: members of every level-1 node swap their reconstructed
     1-shares and recover the secrets. *)
  let k1 = Tree.node_size t.tree ~level:1 in
  let t1 = Params.share_threshold t.params ~holders:k1 in
  let pieces = Hashtbl.create 1024 in
  let secrets =
    hop t
      ~sends:(fun send ->
        Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.triple_cmp
          (fun (c, leaf, inst) words ->
            let members = Tree.members t.tree ~level:1 ~node:leaf in
            let off, _ = Hashtbl.find range_tbl c in
            for mp = 0 to k1 - 1 do
              (* Own shares count without a message. *)
              if mp = inst then Hashtbl.replace pieces (c, leaf, inst) [ (inst, words) ]
              else
                send ~src:members.(inst) ~dst:members.(mp)
                  ~payload_of:(fun words -> Leaf_val { cand = c; leaf; inst; off; words })
                  words
            done)
          !cur)
      ~accept:(fun p e admit ->
        match e.payload with
        | Leaf_val { cand; leaf; inst; off; words }
          when inst >= 0 && inst < k1 && leaf >= 0
               && leaf < Tree.node_count t.tree ~level:1 -> (
          let len = range_len cand off in
          if len > 0 && (Tree.members t.tree ~level:1 ~node:leaf).(inst) = e.src then
            match Tree.position_of t.tree ~level:1 ~node:leaf p with
            | Some mp ->
              if admit p e (cand, leaf, inst) ~slot:inst ~len words then
                add_piece pieces (cand, leaf, mp) inst words
            | None -> ())
        | _ -> ())
      ~decode:(fun () -> decode_pieces pieces ~threshold:(fun _ -> t1))
  in
  (* sendOpen: leaf members report straight up the ℓ-links; election-node
     members take a majority inside each leaf's reports, then across
     leaves.  reports : (cand, election member position, leaf) -> word
     vectors. *)
  let reports = Hashtbl.create 4096 in
  let views =
    hop t
      ~sends:(fun send ->
        Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.triple_cmp
          (fun (c, leaf, mp) words ->
            let enode = node_of t ~cand:c ~level in
            let sender = (Tree.members t.tree ~level:1 ~node:leaf).(mp) in
            let emembers = Tree.members t.tree ~level ~node:enode in
            let off, _ = Hashtbl.find range_tbl c in
            Array.iter
              (fun em ->
                send ~src:sender ~dst:emembers.(em)
                  ~payload_of:(fun words -> Open_val { cand = c; leaf; off; words })
                  words)
              (Tree.ell_sources t.tree ~level ~node:enode ~leaf))
          secrets)
      ~accept:(fun p e admit ->
        match e.payload with
        | Open_val { cand; leaf; off; words }
          when leaf >= 0 && leaf < Tree.node_count t.tree ~level:1 -> (
          let len = range_len cand off in
          if len > 0 then
            let enode = node_of t ~cand ~level in
            match Tree.position_of t.tree ~level ~node:enode p with
            | Some em
              when Array.exists (fun l -> l = leaf)
                     (Tree.ell_links t.tree ~level ~node:enode ~member:em)
                   && Tree.position_of t.tree ~level:1 ~node:leaf e.src <> None ->
              if admit p e (cand, leaf) ~slot:leaf ~len words then
                push reports (cand, em, leaf) words
            | Some _ | None -> ())
        | _ -> ())
      ~decode:(fun () ->
        (* Per-leaf majority, then per-member majority across leaves. *)
        let leaf_values = Hashtbl.create 4096 and views = Hashtbl.create 4096 in
        majorities ~cmp:Ks_stdx.Dtbl.triple_cmp reports (fun (cand, em, _leaf) v ->
            push leaf_values (cand, em) v);
        majorities ~cmp:Ks_stdx.Dtbl.pair_cmp leaf_values (Hashtbl.replace views);
        (views, 0))
  in
  fun ~cand ~member -> Hashtbl.find_opt views (cand, member)
