module Prng = Ks_stdx.Prng
open Ks_sim.Types

type 'msg scheduler = Fair | Delay_targets of int list

(* A growable pool with O(1) random removal (swap with last). *)
module Pool = struct
  type 'msg t = {
    mutable slots : 'msg envelope option array;
    mutable count : int;
  }

  let create () = { slots = Array.make 64 None; count = 0 }

  let push t e =
    if t.count = Array.length t.slots then begin
      let bigger = Array.make (2 * t.count) None in
      Array.blit t.slots 0 bigger 0 t.count;
      t.slots <- bigger
    end;
    t.slots.(t.count) <- Some e;
    t.count <- t.count + 1

  let take t i =
    match t.slots.(i) with
    | None -> assert false
    | Some e ->
      t.count <- t.count - 1;
      t.slots.(i) <- t.slots.(t.count);
      t.slots.(t.count) <- None;
      e

  let take_random t rng = take t (Prng.int rng t.count)
end

type 'msg t = {
  size : int;
  corrupt : bool array;
  starved : bool array;
  meter : Ks_sim.Meter.t;
  msg_bits : 'msg -> int;
  rng : Prng.t;
  (* Two pools keep scheduling O(1): [free] holds traffic the scheduler
     is happy to deliver, [held] the traffic to starved destinations
     (delivered only when nothing else is pending — eventual delivery). *)
  free : 'msg Pool.t;
  held : 'msg Pool.t;
  (* No rounds in the async model: events carry the delivery-event count
     instead, so a trace still orders the run. *)
  mutable delivered : int;
  faults : Ks_faults.Injector.t option;
  hub : Ks_monitor.Hub.t option;
  net_id : int;
}

let emit t ev = match t.hub with None -> () | Some h -> Ks_monitor.Hub.emit h ev

let create ?hub ?faults ?(label = "async") ~seed ~n ~corrupt ~msg_bits ~scheduler () =
  if n <= 0 then invalid_arg "Async_net.create: n must be positive";
  (* Benign faults, as in [Ks_sim.Net]: explicit plan, else ambient.  The
     round-free async model has no churn pass, so only the in-flight
     omission/duplication rates of the plan apply here. *)
  let faults =
    match faults with Some _ as f -> f | None -> Ks_faults.Plan.ambient ()
  in
  let faults =
    Option.bind faults (fun plan -> Ks_faults.Injector.create plan ~label ~n)
  in
  let corrupt_arr = Array.make n false in
  List.iter (fun p -> if p >= 0 && p < n then corrupt_arr.(p) <- true) corrupt;
  let starved = Array.make n false in
  (match scheduler with
   | Fair -> ()
   | Delay_targets targets ->
     List.iter (fun p -> if p >= 0 && p < n then starved.(p) <- true) targets);
  let hub = match hub with Some _ as h -> h | None -> Ks_monitor.Hub.ambient () in
  let budget = Array.fold_left (fun a c -> if c then a + 1 else a) 0 corrupt_arr in
  let net_id =
    match hub with
    | Some h -> Ks_monitor.Hub.register_net h ~label ~n ~budget
    | None -> 0
  in
  let t =
    {
      size = n;
      corrupt = corrupt_arr;
      starved;
      meter = Ks_sim.Meter.create ~n;
      msg_bits;
      rng = Prng.create seed;
      free = Pool.create ();
      held = Pool.create ();
      delivered = 0;
      faults;
      hub;
      net_id;
    }
  in
  (* The static corruptions, replayed as if made before the first delivery. *)
  let total = ref 0 in
  for p = 0 to n - 1 do
    if corrupt_arr.(p) then begin
      incr total;
      emit t
        (Ks_monitor.Event.Corrupt
           { net = net_id; round = 0; proc = p; total = !total; budget })
    end
  done;
  t

let n t = t.size
let is_corrupt t p = t.corrupt.(p)
let meter t = t.meter
let pending t = t.free.Pool.count + t.held.Pool.count

let send t msgs =
  List.iter
    (fun e ->
      if e.dst >= 0 && e.dst < t.size then begin
        let bits = t.msg_bits e.payload in
        if not t.corrupt.(e.src) then
          Ks_sim.Meter.charge_send t.meter e.src ~bits;
        emit t
          (Ks_monitor.Event.Send
             { net = t.net_id; round = t.delivered; src = e.src; dst = e.dst;
               bits; adv = t.corrupt.(e.src) });
        (* In-flight benign faults apply at enqueue time: the sender has
           paid either way; omission loses the message, duplication
           schedules (and later charges the receiver for) a second copy. *)
        let enqueue () =
          if t.starved.(e.dst) then Pool.push t.held e else Pool.push t.free e
        in
        match t.faults with
        | None -> enqueue ()
        | Some inj -> (
          match Ks_faults.Injector.transit inj with
          | `Deliver -> enqueue ()
          | `Drop ->
            emit t
              (Ks_monitor.Event.Fault
                 { net = t.net_id; round = t.delivered; kind = "drop";
                   proc = e.src; dst = e.dst; info = bits })
          | `Duplicate ->
            enqueue ();
            enqueue ();
            emit t
              (Ks_monitor.Event.Fault
                 { net = t.net_id; round = t.delivered; kind = "dup";
                   proc = e.src; dst = e.dst; info = bits }))
      end)
    msgs

let decide t p value = emit t (Ks_monitor.Event.Decide { net = t.net_id; proc = p; value })

let emit_meter t =
  match t.hub with
  | None -> ()
  | Some _ ->
    for p = 0 to t.size - 1 do
      emit t
        (Ks_monitor.Event.Meter_proc
           { net = t.net_id; proc = p; sent_bits = Ks_sim.Meter.sent_bits t.meter p;
             recv_bits = Ks_sim.Meter.recv_bits t.meter p;
             sent_msgs = Ks_sim.Meter.sent_msgs t.meter p })
    done;
    emit t
      (Ks_monitor.Event.Run_end
         { net = t.net_id; rounds = t.delivered;
           total_bits = Ks_sim.Meter.total_sent_bits t.meter })

let step t ~handler =
  if pending t = 0 then false
  else begin
    (* Starved destinations get a trickle — one delivery in 32 — rather
       than nothing: deferring held traffic only while other traffic
       exists would let a busy network starve them forever, which the
       asynchronous model's eventual-delivery guarantee forbids. *)
    let from_held =
      t.held.Pool.count > 0
      && (t.free.Pool.count = 0 || Prng.int t.rng 32 = 0)
    in
    let e =
      if from_held then Pool.take_random t.held t.rng
      else Pool.take_random t.free t.rng
    in
    if not t.corrupt.(e.dst) then
      Ks_sim.Meter.charge_recv t.meter e.dst ~bits:(t.msg_bits e.payload);
    t.delivered <- t.delivered + 1;
    send t (handler ~me:e.dst e);
    true
  end

let run t ~handler ~max_events =
  let events = ref 0 in
  while !events < max_events && step t ~handler do
    incr events
  done;
  !events
