module Prng = Ks_stdx.Prng
open Types

type 'msg t = {
  size : int;
  budget : int;
  corrupt : bool array;
  mutable corrupt_order : proc list; (* newest first *)
  mutable corrupt_count : int;
  meter : Meter.t;
  strategy : 'msg strategy;
  engine_rng : Prng.t;
  adversary_rng : Prng.t;
  proc_seed : Prng.t;
  proc_rngs : Prng.t option array;
  msg_bits : 'msg -> int;
  faults : Ks_faults.Injector.t option;
  mutable round : int;
  hub : Ks_monitor.Hub.t option;
  net_id : int;
}

let emit t ev = match t.hub with None -> () | Some h -> Ks_monitor.Hub.emit h ev

let apply_corruptions t procs =
  List.iter
    (fun p ->
      if p >= 0 && p < t.size && (not t.corrupt.(p)) && t.corrupt_count < t.budget
      then begin
        t.corrupt.(p) <- true;
        t.corrupt_order <- p :: t.corrupt_order;
        t.corrupt_count <- t.corrupt_count + 1;
        emit t
          (Ks_monitor.Event.Corrupt
             { net = t.net_id; round = t.round; proc = p; total = t.corrupt_count;
               budget = t.budget });
        t.strategy.on_corrupt p
      end)
    procs

let create ?hub ?faults ?(label = "net") ~seed ~n ~budget ~msg_bits ~strategy () =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  if budget < 0 || budget >= n then invalid_arg "Net.create: budget out of range";
  let hub = match hub with Some _ as h -> h | None -> Ks_monitor.Hub.ambient () in
  (* Benign-fault layer: an explicit plan wins, otherwise pick up the
     ambient one.  Trivial/absent plans build no injector, so unfaulted
     runs draw no extra randomness and emit no extra events. *)
  let faults =
    match faults with Some _ as f -> f | None -> Ks_faults.Plan.ambient ()
  in
  let faults =
    Option.bind faults (fun plan -> Ks_faults.Injector.create plan ~label ~n)
  in
  let net_id =
    match hub with
    | Some h -> Ks_monitor.Hub.register_net h ~label ~n ~budget
    | None -> 0
  in
  let root = Prng.create seed in
  let t =
    {
      size = n;
      budget;
      corrupt = Array.make n false;
      corrupt_order = [];
      corrupt_count = 0;
      meter = Meter.create ~n;
      strategy;
      engine_rng = Prng.split root;
      adversary_rng = Prng.split root;
      proc_seed = Prng.split root;
      proc_rngs = Array.make n None;
      msg_bits;
      faults;
      round = 0;
      hub;
      net_id;
    }
  in
  apply_corruptions t (strategy.initial_corruptions t.adversary_rng ~n ~budget);
  t

let n t = t.size
let round t = t.round
let meter t = t.meter
let is_corrupt t p = t.corrupt.(p)
let corrupt_count t = t.corrupt_count
let budget t = t.budget
let good_procs t =
  let rec go p acc = if p < 0 then acc else go (p - 1) (if t.corrupt.(p) then acc else p :: acc) in
  go (t.size - 1) []

let rng t = t.engine_rng

(* Memoized so repeated calls return the same advancing stream — a fresh
   stream per call would replay the same randomness across independent
   secret-sharing polynomials. *)
let proc_rng t p =
  match t.proc_rngs.(p) with
  | Some rng -> rng
  | None ->
    let rng = Prng.split_at t.proc_seed p in
    t.proc_rngs.(p) <- Some rng;
    rng

let corrupt_now t procs = apply_corruptions t procs

let decide t p value = emit t (Ks_monitor.Event.Decide { net = t.net_id; proc = p; value })

let quarantine t ~accuser ~offender ~evidence ~info =
  emit t
    (Ks_monitor.Event.Quarantine
       { net = t.net_id; round = t.round; accuser; offender; evidence; info })

let emit_meter t =
  match t.hub with
  | None -> ()
  | Some _ ->
    for p = 0 to t.size - 1 do
      emit t
        (Ks_monitor.Event.Meter_proc
           { net = t.net_id; proc = p; sent_bits = Meter.sent_bits t.meter p;
             recv_bits = Meter.recv_bits t.meter p; sent_msgs = Meter.sent_msgs t.meter p })
    done;
    emit t
      (Ks_monitor.Event.Run_end
         { net = t.net_id; rounds = Meter.rounds t.meter;
           total_bits = Meter.total_sent_bits t.meter })

let make_view t good_outgoing =
  {
    view_round = t.round;
    view_n = t.size;
    view_is_corrupt = (fun p -> t.corrupt.(p));
    view_corrupt = List.rev t.corrupt_order;
    view_budget_left = t.budget - t.corrupt_count;
    view_visible = List.filter (fun e -> t.corrupt.(e.dst)) good_outgoing;
    view_rng = t.adversary_rng;
  }

let fault_event t kind ~proc ~dst ~info =
  Ks_monitor.Event.Fault
    { net = t.net_id; round = t.round;
      kind = Ks_faults.Injector.kind_to_string kind; proc; dst; info }

let exchange t outgoing =
  emit t (Ks_monitor.Event.Round_start { net = t.net_id; round = t.round });
  (* Benign churn first: crash/recover/silence state advances before any
     traffic moves, and below the adversary — a crashed or silenced
     processor's messages never even enter the network for the adversary
     to rush against. *)
  (match t.faults with
   | None -> ()
   | Some inj ->
     Ks_faults.Injector.begin_round inj ~round:t.round
       ~on_fault:(fun kind ~proc ~info ->
         emit t (fault_event t kind ~proc ~dst:(-1) ~info)));
  (* Only good processors' messages enter the network from the protocol. *)
  let good_outgoing = List.filter (fun e -> not t.corrupt.(e.src)) outgoing in
  let good_outgoing =
    match t.faults with
    | None -> good_outgoing
    | Some inj ->
      List.filter
        (fun e -> not (Ks_faults.Injector.send_suppressed inj e.src))
        good_outgoing
  in
  (* Adaptive corruption: the adversary inspects what it may see, then
     takes over more processors before delivery. *)
  let requested = t.strategy.adapt (make_view t good_outgoing) in
  apply_corruptions t requested;
  (* Messages from freshly corrupted processors are reclaimed. *)
  let good_outgoing = List.filter (fun e -> not t.corrupt.(e.src)) good_outgoing in
  (* Rushing: the adversary reads traffic addressed to its processors and
     only now decides what the corrupted processors send.  The model is
     enforced here: only corrupted, in-range senders may inject, and the
     src bound is checked before the corruption lookup so a strategy
     returning a wild src is dropped rather than crashing the engine. *)
  let adversarial =
    List.filter
      (fun e ->
        e.src >= 0 && e.src < t.size && t.corrupt.(e.src) && e.dst >= 0
        && e.dst < t.size)
      (t.strategy.act (make_view t good_outgoing))
  in
  (* A crashed machine cannot transmit even under adversarial control
     (silence windows are a protocol-layer omission and bind good
     processors only). *)
  let adversarial =
    match t.faults with
    | None -> adversarial
    | Some inj ->
      List.filter (fun e -> not (Ks_faults.Injector.down inj e.src)) adversarial
  in
  (* Accounting and delivery in one pass: each payload is measured once,
     the sender pays, the (good) receiver is charged, and the per-round
     totals for Round_end accumulate alongside instead of being re-folded
     over the payloads afterwards. *)
  let inboxes = Array.make t.size [] in
  let deliver e ~bits =
    inboxes.(e.dst) <- e :: inboxes.(e.dst);
    if not t.corrupt.(e.dst) then Meter.charge_recv t.meter e.dst ~bits
  in
  (* In-flight faults: the sender has already paid for the message (and
     its Send event is already in the trace); omission loses it before
     the receiver is charged, duplication charges the receiver twice.  A
     crashed destination receives nothing, deterministically. *)
  let deliver =
    match t.faults with
    | None -> deliver
    | Some inj ->
      fun e ~bits ->
        if Ks_faults.Injector.down inj e.dst then ()
        else (
          match Ks_faults.Injector.transit inj with
          | `Deliver -> deliver e ~bits
          | `Drop ->
            emit t (fault_event t Ks_faults.Injector.Drop ~proc:e.src ~dst:e.dst ~info:bits)
          | `Duplicate ->
            deliver e ~bits;
            deliver e ~bits;
            emit t (fault_event t Ks_faults.Injector.Dup ~proc:e.src ~dst:e.dst ~info:bits))
  in
  let good_count = ref 0 and good_bits = ref 0 in
  List.iter
    (fun e ->
      let bits = t.msg_bits e.payload in
      incr good_count;
      good_bits := !good_bits + bits;
      Meter.charge_send t.meter e.src ~bits;
      emit t
        (Ks_monitor.Event.Send
           { net = t.net_id; round = t.round; src = e.src; dst = e.dst; bits; adv = false });
      deliver e ~bits)
    good_outgoing;
  let adv_count = ref 0 and adv_bits = ref 0 in
  List.iter
    (fun e ->
      let bits = t.msg_bits e.payload in
      incr adv_count;
      adv_bits := !adv_bits + bits;
      (* Corrupted senders pay for their traffic like everyone else —
         leaving adversarial sends unmetered undercounts total bits. *)
      Meter.charge_send t.meter e.src ~bits;
      emit t
        (Ks_monitor.Event.Send
           { net = t.net_id; round = t.round; src = e.src; dst = e.dst; bits; adv = true });
      deliver e ~bits)
    adversarial;
  (* Reverse so good messages appear first, in send order. *)
  let inboxes = Array.map List.rev inboxes in
  (match t.hub with
   | None -> ()
   | Some _ ->
     emit t
       (Ks_monitor.Event.Round_end
          { net = t.net_id; round = t.round; msgs = !good_count; bits = !good_bits;
            adv_msgs = !adv_count; adv_bits = !adv_bits }));
  Meter.tick_round t.meter;
  t.round <- t.round + 1;
  inboxes
