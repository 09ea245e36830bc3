module Prng = Ks_stdx.Prng
open Ks_sim.Types

type msg = Bval of { r : int; v : bool } | Aux of { r : int; v : bool }

(* Tag byte + varint round + value bit, as in the synchronous codecs. *)
let msg_bits m =
  let r = match m with Bval { r; _ } | Aux { r; _ } -> r in
  8 * (1 + Ks_stdx.Wire.varint_len r + 1)

type outcome = {
  decided : bool option array;
  agreement : bool;
  validity : bool;
  events : int;
  max_rounds : int;
  max_sent_bits : int;
}

type byz = Silent | Equivocate

(* Per-round bookkeeping of one good processor. *)
type round_state = {
  bval_senders : (bool, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable bval_sent0 : bool;
  mutable bval_sent1 : bool;
  mutable admitted0 : bool;
  mutable admitted1 : bool;
  mutable first_admitted : bool option;
  mutable aux_sent : bool;
  aux_recv : (int, bool) Hashtbl.t; (* sender -> value (first wins) *)
}

type pstate = {
  mutable est : bool;
  mutable round : int;
  mutable committed : bool option;
  rounds : (int, round_state) Hashtbl.t;
}

let round_state st r =
  match Hashtbl.find_opt st.rounds r with
  | Some rs -> rs
  | None ->
    let rs =
      {
        bval_senders = Hashtbl.create 4;
        bval_sent0 = false;
        bval_sent1 = false;
        admitted0 = false;
        admitted1 = false;
        first_admitted = None;
        aux_sent = false;
        aux_recv = Hashtbl.create 16;
      }
    in
    Hashtbl.replace st.rounds r rs;
    rs

let run ~seed ~n ~f ~inputs ~byz ~scheduler ~max_events () =
  if Array.length inputs <> n then invalid_arg "Async_ba.run: inputs length";
  let root = Prng.create seed in
  let coin_rng = Prng.split root in
  let coin r = Int64.logand (Prng.bits64 (Prng.split_at coin_rng r)) 1L = 1L in
  let corrupt =
    Array.to_list (Prng.sample_without_replacement (Prng.split root) ~n ~k:f)
  in
  let net =
    Async_net.create ~seed:(Prng.bits64 root) ~n ~corrupt ~msg_bits ~scheduler ()
  in
  let states =
    Array.init n (fun p ->
        { est = inputs.(p); round = 0; committed = None; rounds = Hashtbl.create 8 })
  in
  let byz_rounds_seen = Array.init n (fun _ -> Hashtbl.create 8) in
  let byz_rng = Prng.split root in
  let broadcast me payload = List.init n (fun dst -> { src = me; dst; payload }) in
  let quorum_relay = f + 1 in
  let quorum_admit = (2 * f) + 1 in
  let quorum_aux = n - f in
  (* Apply the round-advance rule as far as the current round's evidence
     allows; returns the messages to send. *)
  let rec progress me st =
    let r = st.round in
    let rs = round_state st r in
    let out = ref [] in
    let admitted v = if v then rs.admitted1 else rs.admitted0 in
    if (not rs.admitted0) && not rs.admitted1 then []
    else begin
      if not rs.aux_sent then begin
        rs.aux_sent <- true;
        let v = Option.value ~default:st.est rs.first_admitted in
        out := broadcast me (Aux { r; v })
      end;
      (* AUX messages whose value is admitted, from distinct senders. *)
      let senders = Hashtbl.create 16 in
      let saw0 = ref false and saw1 = ref false in
      Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_cmp
        (fun s v ->
          if admitted v then begin
            Hashtbl.replace senders s ();
            if v then saw1 := true else saw0 := true
          end)
        rs.aux_recv;
      if Hashtbl.length senders >= quorum_aux then begin
        let c = coin r in
        (match (!saw0, !saw1) with
         | true, false ->
           st.est <- false;
           if (not c) && st.committed = None then st.committed <- Some false
         | false, true ->
           st.est <- true;
           if c && st.committed = None then st.committed <- Some true
         | _ -> st.est <- c);
        st.round <- r + 1;
        let r' = st.round in
        let rs' = round_state st r' in
        if st.est then rs'.bval_sent1 <- true else rs'.bval_sent0 <- true;
        out := !out @ broadcast me (Bval { r = r'; v = st.est });
        (* Later rounds may already have enough evidence buffered. *)
        out := !out @ progress me st
      end;
      !out
    end
  in
  let handle_good me e =
    let st = states.(me) in
    match e.payload with
    | Bval { r; v } ->
      let rs = round_state st r in
      let senders =
        match Hashtbl.find_opt rs.bval_senders v with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace rs.bval_senders v tbl;
          tbl
      in
      if Hashtbl.mem senders e.src then []
      else begin
        Hashtbl.replace senders e.src ();
        let count = Hashtbl.length senders in
        let out = ref [] in
        let sent = if v then rs.bval_sent1 else rs.bval_sent0 in
        if count >= quorum_relay && not sent then begin
          if v then rs.bval_sent1 <- true else rs.bval_sent0 <- true;
          out := broadcast me (Bval { r; v })
        end;
        if count >= quorum_admit && not (if v then rs.admitted1 else rs.admitted0)
        then begin
          if v then rs.admitted1 <- true else rs.admitted0 <- true;
          if rs.first_admitted = None then rs.first_admitted <- Some v;
          out := !out @ progress me st
        end;
        !out
      end
    | Aux { r; v } ->
      let rs = round_state st r in
      if Hashtbl.mem rs.aux_recv e.src then []
      else begin
        Hashtbl.replace rs.aux_recv e.src v;
        progress me st
      end
  in
  let handle_byz me e =
    match byz with
    | Silent -> []
    | Equivocate ->
      let r = match e.payload with Bval { r; _ } | Aux { r; _ } -> r in
      if Hashtbl.mem byz_rounds_seen.(me) r then []
      else begin
        Hashtbl.replace byz_rounds_seen.(me) r ();
        broadcast me (Bval { r; v = true })
        @ broadcast me (Bval { r; v = false })
        @ broadcast me (Aux { r; v = Prng.bool byz_rng })
      end
  in
  let handler ~me e =
    if Async_net.is_corrupt net me then handle_byz me e else handle_good me e
  in
  (* Kick off round 0. *)
  for p = 0 to n - 1 do
    if not (Async_net.is_corrupt net p) then begin
      let st = states.(p) in
      let rs = round_state st 0 in
      if st.est then rs.bval_sent1 <- true else rs.bval_sent0 <- true;
      Async_net.send net (broadcast p (Bval { r = 0; v = st.est }))
    end
  done;
  let good p = not (Async_net.is_corrupt net p) in
  let all_decided () =
    let ok = ref true in
    for p = 0 to n - 1 do
      if good p && states.(p).committed = None then ok := false
    done;
    !ok
  in
  let events = ref 0 in
  let chunk = Stdlib.max 64 (n * 4) in
  while (not (all_decided ())) && !events < max_events && Async_net.pending net > 0 do
    events := !events + Async_net.run net ~handler ~max_events:chunk
  done;
  let decided = Array.map (fun st -> st.committed) states in
  for p = 0 to n - 1 do
    if good p then
      match decided.(p) with
      | Some v -> Async_net.decide net p (Bool.to_int v)
      | None -> ()
  done;
  Async_net.emit_meter net;
  let good_values =
    List.filter_map
      (fun p -> if good p then decided.(p) else None)
      (List.init n (fun i -> i))
  in
  let agreement =
    List.length good_values = List.length (List.filter good (List.init n (fun i -> i)))
    && (match good_values with
        | [] -> true
        | first :: rest -> List.for_all (fun v -> v = first) rest)
  in
  let validity =
    match good_values with
    | v :: _ ->
      let ok = ref false in
      for p = 0 to n - 1 do
        if good p && inputs.(p) = v then ok := true
      done;
      !ok
    | [] -> false
  in
  let max_rounds =
    Array.fold_left
      (fun acc (st : pstate) -> Stdlib.max acc st.round)
      0
      (Array.of_list
         (List.filter_map
            (fun p -> if good p then Some states.(p) else None)
            (List.init n (fun i -> i))))
  in
  {
    decided;
    agreement;
    validity;
    events = !events;
    max_rounds;
    max_sent_bits =
      Ks_sim.Meter.max_sent_bits (Async_net.meter net)
        ~over:(List.filter good (List.init n (fun i -> i)));
  }
