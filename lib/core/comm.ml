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
    let k1 = Tree.node_size tree ~level:1 in
    let pos = Array.make levels (Array.init k1 Fun.id) in
    let par = Array.make levels (Array.make k1 (-1)) and kids = Array.make levels [||] in
    for l = 1 to levels - 1 do
      (* Instances at level l+1: one per (instance at l, uplink slot), in
         that order. *)
      let ups = Array.map (fun p -> Tree.uplinks tree ~level:l ~member:p) pos.(l - 1) in
      let next = ref (-1) in
      kids.(l - 1) <- Array.map (Array.map (fun _ -> incr next; !next)) ups;
      pos.(l) <- Array.concat (Array.to_list ups);
      par.(l) <-
        Array.concat (List.mapi (fun i u -> Array.make (Array.length u) i) (Array.to_list ups))
    done;
    kids.(levels - 1) <- Array.make (Array.length pos.(levels - 1)) [||];
    let at_pos =
      Array.init levels (fun li ->
          let buckets = Array.make (Tree.node_size tree ~level:(li + 1)) [] in
          Array.iteri (fun i p -> buckets.(p) <- i :: buckets.(p)) pos.(li);
          Array.map (fun l -> Array.of_list (List.rev l)) buckets)
    in
    { counts = Array.map Array.length pos; pos; par; kids; at_pos }

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
     (see [admit]), ignored by that accuser from the accusation on. *)
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
     the same sender on the accuser's private channel.  The route check
     fixes (accuser, sender) from the slot, so the witness is the slot's
     stored share [prev] ([||] while empty); duplicated deliveries of the
     identical value — benign [dup] faults, retry resends — do not
     conflict.

   With quarantine off the gate degrades to exactly the pre-hardening
   length check: no evidence, no events, no rejections beyond length.
   Callers store [words] only into an empty slot, so each slot counts
   its first admitted value once. *)

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

let admit t accuser src ~prev ~info ~len words =
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
    | None ->
      if Array.length prev > 0 && not (words_equal prev words) then begin
        accuse t ~accuser ~offender:src ~evidence:"equivocation" ~info;
        false
      end
      else true

(* Per word, the most frequent value among [vectors] of the first one's
   length; ties go to the smallest value. *)
let word_majority = function
  | [] -> None
  | first :: _ as vectors ->
    let vectors = List.filter (fun v -> Array.length v = Array.length first) vectors in
    let col = Array.make (List.length vectors) 0 in
    Some
      (Array.init (Array.length first) (fun w ->
           List.iteri (fun i v -> col.(i) <- v.(w)) vectors;
           Array.sort Int.compare col;
           (* Runs of equal values, ascending: the first longest wins. *)
           let best = ref col.(0) and best_run = ref 0 and run = ref 0 in
           Array.iteri
             (fun i v ->
               run := if i > 0 && col.(i - 1) = v then !run + 1 else 1;
               if !run > !best_run then begin best := v; best_run := !run end)
             col;
           !best))

(* --- The share hop -----------------------------------------------------

   All five share payloads (Deal, Share_up, Share_down, Leaf_val,
   Open_val) move one hop along tree links the same way (§3.2.3).
   [sends send] lists the shares; [send] routes each one, direct for good
   senders, via the adversary queue under the behavior policy for
   corrupted ones.  After one [exchange], [accept p e] checks the route
   of each envelope [e] delivered to [p] (identifier ranges, expected
   sender and recipient) and only then passes it through [admit] into its
   slot.

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
  let collect = Array.iteri (fun p -> List.iter (accept p)) in
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

(* Deal and Share_up keep the first admitted share of each instance; the
   held share is the slot's witness. *)
let keep t p e held inst ~len words =
  if admit t p e.src ~prev:(Option.value ~default:[||] held.(inst)) ~info:inst ~len words
     && Option.is_none held.(inst)
  then held.(inst) <- Some words

(* The pieces of a hop.  [words.(s)] is the first share admitted into piece
   slot [s] ([||] while empty), and its witness.  The pieces of list [d]
   are in reverse arrival order — what [Sh.reconstruct_vectors] has always
   been given — from [head.(d)] on through [next]. *)
type pieces = { words : word array array; next : int array; head : int array }

let pieces ~slots ~lists =
  { words = Array.make slots [||]; next = Array.make slots (-1);
    head = Array.make lists (-1) }

let store pk ~list s words =
  pk.words.(s) <- words;
  pk.next.(s) <- pk.head.(list);
  pk.head.(list) <- s

let admit_piece t pk p e ~list s ~info ~len words =
  if admit t p e.src ~prev:pk.words.(s) ~info ~len words && Array.length pk.words.(s) = 0
  then store pk ~list s words

(* Robust-decode every non-empty list, in list order, where [x s] is piece
   slot [s]'s evaluation point: the decoded values ([||] where none) and
   the number of lists that failed. *)
let decode_lists pk ~threshold ~x =
  let decoded = Array.make (Array.length pk.head) [||] and failed = ref 0 in
  let rec walk s = if s < 0 then [] else (x s, pk.words.(s)) :: walk pk.next.(s) in
  Array.iteri
    (fun d first ->
      if first >= 0 then
        Option.iter (fun v -> decoded.(d) <- v)
          (Sh.reconstruct_vectors ~failures:failed ~threshold:(threshold d) (walk first)))
    pk.head;
  (decoded, !failed)

let rec index_of a v i =
  if i >= Array.length a then -1 else if a.(i) = v then i else index_of a v (i + 1)

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
    ~accept:(fun p e ->
      match e.payload with
      | Deal { cand; inst; words }
        when cand >= 0 && cand < n && inst >= 0 && inst < k1 && e.src = cand
             && (Tree.members t.tree ~level:1 ~node:cand).(inst) = p ->
        keep t p e t.cands.(cand).held inst ~len:t.vec_len.(cand) words
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
    let count_cur = Structure.count t.structure ~level:lvl
    and count_next = Structure.count t.structure ~level:next in
    (* The next level's shares per candidate, [||] if not passed up. *)
    let fresh = Array.make t.params.Params.n [||] in
    List.iter (fun c -> fresh.(c) <- Array.make count_next None) cands;
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
      ~accept:(fun p e ->
        match e.payload with
        | Share_up { cand; inst; words }
          when cand >= 0 && cand < t.params.Params.n && Array.length fresh.(cand) > 0
               && inst >= 0 && inst < count_next ->
          let parent_inst = Structure.parent t.structure ~level:next ~inst in
          if
            holder t ~level:next ~node:(node_of t ~cand ~level:next) ~inst = p
            && holder t ~level:lvl ~node:(node_of t ~cand ~level:lvl) ~inst:parent_inst = e.src
          then keep t p e fresh.(cand) inst ~len:t.vec_len.(cand) words
        | _ -> ());
    List.iter
      (fun c ->
        t.cands.(c).live_level <- next;
        t.cands.(c).held <- fresh.(c))
      cands);
  List.iter
    (fun c ->
      t.cands.(c).live_level <- -1;
      t.cands.(c).held <- [||])
    drop

(* --- Opening ranges ------------------------------------------------------

   Every table of an open is a flat array in the dense layout of comm.mli:
   [r] indexes the ranges sorted by candidate ([rix] maps a candidate to
   it), and a level-[l] table is indexed [(r·width l + node − lo)·count l +
   inst], so ascending index order is ascending (cand, node, inst). *)
let open_ranges_view t ~level ~ranges =
  if level < 2 then invalid_arg "Comm.open_ranges_view: level must be >= 2";
  let n = t.params.Params.n in
  let rix = Array.make n (-1) in
  List.iter
    (fun (c, off, len) ->
      if t.cands.(c).live_level <> level then
        invalid_arg "Comm.open_ranges_view: candidate not live at this level";
      if off < 0 || len < 1 || off + len > t.vec_len.(c) then
        invalid_arg "Comm.open_ranges_view: bad range";
      if rix.(c) >= 0 then invalid_arg "Comm.open_ranges_view: duplicate candidate";
      rix.(c) <- 0)
    ranges;
  let ranges = Array.of_list ranges in
  Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) ranges;
  Array.iteri (fun r (c, _, _) -> rix.(c) <- r) ranges;
  let nr = Array.length ranges and cands = Array.map (fun (c, _, _) -> c) ranges in
  let offs = Array.map (fun (_, o, _) -> o) ranges in
  let lens = Array.map (fun (_, _, l) -> l) ranges in
  (* The range of a payload for [c] at offset [o], -1 if not in this open. *)
  let range_of c o =
    if c >= 0 && c < n && rix.(c) >= 0 && offs.(rix.(c)) = o then rix.(c) else -1
  in
  let enode = Array.map (fun c -> node_of t ~cand:c ~level) cands in
  let width = Array.init (level + 1) (Ks_stdx.Intmath.pow (Tree.config t.tree).Tree.q) in
  let width l = width.(level - l) and count l = Structure.count t.structure ~level:l in
  (* Node slot [ns = r·width l + node − lo] ↔ [node]; -1 when a payload for
     [c] at offset [o] is not in this open or [node] is outside the subtree. *)
  let node_at l ns = (enode.(ns / width l) * width l) + (ns mod width l) in
  let node_slot l c o node =
    let r = range_of c o in
    let rel = if r < 0 then -1 else node - (enode.(r) * width l) in
    if rel >= 0 && rel < width l then (r * width l) + rel else -1
  in
  (* [f ns node x words] for each filled entry of a level-[l] table with
     [per] entries per node slot. *)
  let iter_filled l per f =
    Array.iteri (fun i w ->
        if Array.length w > 0 then f (i / per) (node_at l (i / per)) (i mod per) w)
  in
  (* Live values at the election level, restricted to the ranges. *)
  let cur =
    ref
      (Array.init (nr * count level) (fun i ->
           let r = i / count level in
           match t.cands.(cands.(r)).held.(i mod count level) with
           | Some v -> Array.sub v offs.(r) lens.(r)
           | None -> [||]))
  in
  (* sendDown: walk the shares to the leaves, reconstructing one depth per
     round.  A piece slot is (r, child node, instance), its list (r, child
     node, parent instance). *)
  for l = level downto 2 do
    let cl = count l and cp = count (l - 1) and values = !cur in
    let pk = pieces ~slots:(nr * width (l - 1) * cl) ~lists:(nr * width (l - 1) * cp) in
    cur :=
      hop t
        ~sends:(fun send ->
          iter_filled l cl
            (fun ns node inst words ->
              let r = ns / width l and pinst = Structure.parent t.structure ~level:l ~inst in
              List.iter
                (fun ch ->
                  send ~src:(holder t ~level:l ~node ~inst)
                    ~dst:(holder t ~level:(l - 1) ~node:ch ~inst:pinst)
                    ~payload_of:(fun words ->
                      Share_down
                        { cand = cands.(r); level = l; node = ch; inst; off = offs.(r); words })
                    words)
                (Tree.children t.tree ~level:l ~node))
            values)
        ~accept:(fun p e ->
          match e.payload with
          | Share_down { cand; level = ml; node = ch; inst; off; words }
            when ml = l && inst >= 0 && inst < cl && ch >= 0
                 && ch < Tree.node_count t.tree ~level:(l - 1) ->
            let ns = node_slot (l - 1) cand off ch in
            let pinst = Structure.parent t.structure ~level:l ~inst in
            if
              ns >= 0
              && holder t ~level:(l - 1) ~node:ch ~inst:pinst = p
              && holder t ~level:l ~node:(Tree.parent t.tree ~level:(l - 1) ~node:ch) ~inst = e.src
            then
              admit_piece t pk p e ~list:((ns * cp) + pinst) ((ns * cl) + inst) ~info:inst
                ~len:lens.(ns / width (l - 1)) words
          | _ -> ())
        ~decode:(fun () ->
          decode_lists pk
            ~x:(fun s -> Structure.pos t.structure ~level:l ~inst:(s mod cl))
            ~threshold:(fun d ->
              let dpos = Structure.pos t.structure ~level:(l - 1) ~inst:(d mod cp) in
              let holders = Tree.uplinks t.tree ~level:(l - 1) ~member:dpos in
              Params.share_threshold t.params ~holders:(Array.length holders)))
  done;
  (* Leaf exchange: members of every level-1 node swap their reconstructed
     1-shares and recover the secrets.  A piece slot is (r, leaf, receiving
     position, sending position), its list (r, leaf, receiving position). *)
  let k1 = Tree.node_size t.tree ~level:1 in
  let t1 = Params.share_threshold t.params ~holders:k1 in
  let pk = pieces ~slots:(nr * width 1 * k1 * k1) ~lists:(nr * width 1 * k1) in
  let secrets =
    hop t
      ~sends:(fun send ->
        iter_filled 1 k1
          (fun ns leaf inst words ->
            let r = ns / width 1 and members = Tree.members t.tree ~level:1 ~node:leaf in
            for mp = 0 to k1 - 1 do
              let list = (ns * k1) + mp in
              (* Own shares count without a message. *)
              if mp = inst then store pk ~list ((list * k1) + inst) words
              else
                send ~src:members.(inst) ~dst:members.(mp)
                  ~payload_of:(fun words ->
                    Leaf_val { cand = cands.(r); leaf; inst; off = offs.(r); words })
                  words
            done)
          !cur)
      ~accept:(fun p e ->
        match e.payload with
        | Leaf_val { cand; leaf; inst; off; words }
          when inst >= 0 && inst < k1 && leaf >= 0
               && leaf < Tree.node_count t.tree ~level:1 -> (
          let ns = node_slot 1 cand off leaf in
          match Tree.position_of t.tree ~level:1 ~node:leaf p with
          | Some mp when ns >= 0 && (Tree.members t.tree ~level:1 ~node:leaf).(inst) = e.src ->
            let list = (ns * k1) + mp in
            admit_piece t pk p e ~list ((list * k1) + inst) ~info:inst ~len:lens.(ns / width 1)
              words
          | _ -> ())
        | _ -> ())
      ~decode:(fun () -> decode_lists pk ~threshold:(fun _ -> t1) ~x:(fun s -> s mod k1))
  in
  (* sendOpen: leaf members report straight up the ℓ-links; election-node
     members take a majority inside each leaf's reports, then across
     leaves.  A report slot is (r, election member, ℓ-link, sending
     position), its list (r, election member, ℓ-link). *)
  let size = Tree.node_size t.tree ~level and links = (Tree.config t.tree).Tree.ell_degree in
  let pk = pieces ~slots:(nr * size * links * k1) ~lists:(nr * size * links) in
  let views =
    hop t
      ~sends:(fun send ->
        iter_filled 1 k1
          (fun ns leaf mp words ->
            let r = ns / width 1 in
            Array.iter
              (fun em ->
                send ~src:(Tree.members t.tree ~level:1 ~node:leaf).(mp)
                  ~dst:(Tree.members t.tree ~level ~node:enode.(r)).(em)
                  ~payload_of:(fun words ->
                    Open_val { cand = cands.(r); leaf; off = offs.(r); words })
                  words)
              (Tree.ell_sources t.tree ~level ~node:enode.(r) ~leaf))
          secrets)
      ~accept:(fun p e ->
        match e.payload with
        | Open_val { cand; leaf; off; words }
          when leaf >= 0 && leaf < Tree.node_count t.tree ~level:1 && range_of cand off >= 0 -> (
          let r = range_of cand off in
          match Tree.position_of t.tree ~level ~node:enode.(r) p with
          | None -> ()
          | Some em -> (
            let j = index_of (Tree.ell_links t.tree ~level ~node:enode.(r) ~member:em) leaf 0 in
            match Tree.position_of t.tree ~level:1 ~node:leaf e.src with
            | Some mp when j >= 0 ->
              let list = (((r * size) + em) * links) + j in
              admit_piece t pk p e ~list ((list * k1) + mp) ~info:leaf ~len:lens.(r) words
            | _ -> ()))
        | _ -> ())
      ~decode:(fun () ->
        let rec walk s = if s < 0 then [] else pk.words.(s) :: walk pk.next.(s) in
        let leaf_value list = word_majority (walk pk.head.(list)) in
        ( Array.init (nr * size) (fun m ->
              word_majority (List.filter_map leaf_value (List.init links (( + ) (m * links))))),
          0 ))
  in
  fun ~cand ~member ->
    if cand < 0 || cand >= n || rix.(cand) < 0 || member < 0 || member >= size then None
    else views.((rix.(cand) * size) + member)
