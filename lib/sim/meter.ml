type t = {
  size : int;
  sent_bits : int array;
  recv_bits : int array;
  sent_msgs : int array;
  mutable rounds : int;
}

let create ~n =
  {
    size = n;
    sent_bits = Array.make n 0;
    recv_bits = Array.make n 0;
    sent_msgs = Array.make n 0;
    rounds = 0;
  }

let n t = t.size

let charge_send t p ~bits =
  t.sent_bits.(p) <- t.sent_bits.(p) + bits;
  t.sent_msgs.(p) <- t.sent_msgs.(p) + 1

let charge_recv t p ~bits = t.recv_bits.(p) <- t.recv_bits.(p) + bits

let tick_round t = t.rounds <- t.rounds + 1

let rounds t = t.rounds
let sent_bits t p = t.sent_bits.(p)
let recv_bits t p = t.recv_bits.(p)
let sent_msgs t p = t.sent_msgs.(p)

let max_sent_bits t ~over =
  List.fold_left (fun acc p -> Stdlib.max acc t.sent_bits.(p)) 0 over

let total_sent_bits t = Array.fold_left ( + ) 0 t.sent_bits

let merge_into dst src =
  if dst.size <> src.size then invalid_arg "Meter.merge_into: size mismatch";
  for p = 0 to dst.size - 1 do
    dst.sent_bits.(p) <- dst.sent_bits.(p) + src.sent_bits.(p);
    dst.recv_bits.(p) <- dst.recv_bits.(p) + src.recv_bits.(p);
    dst.sent_msgs.(p) <- dst.sent_msgs.(p) + src.sent_msgs.(p)
  done;
  dst.rounds <- dst.rounds + src.rounds
