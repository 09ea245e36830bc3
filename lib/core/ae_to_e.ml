module Prng = Ks_stdx.Prng
module Intmath = Ks_stdx.Intmath
open Ks_sim.Types

type msg = Request of int | Reply of { label : int; value : int }

module W = Ks_stdx.Wire.Writer
module R = Ks_stdx.Wire.Reader

let encode_msg m =
  let w = W.create () in
  (match m with
   | Request label ->
     W.byte w 0;
     W.varint w label
   | Reply { label; value } ->
     W.byte w 1;
     W.varint w label;
     W.u32 w value);
  W.contents w

let decode_msg data =
  Ks_stdx.Wire.decode data (fun r ->
      match R.byte r with
      | 0 -> Request (R.varint r)
      | 1 ->
        let label = R.varint r in
        Reply { label; value = R.u32 r }
      | tag -> R.fail (Ks_stdx.Wire.Bad_tag tag))

let msg_bits m =
  8
  *
  match m with
  | Request label -> 1 + Ks_stdx.Wire.varint_len label
  | Reply { label; value = _ } -> 1 + Ks_stdx.Wire.varint_len label + 4

type config = {
  labels : int;
  requests_per_label : int;
  iterations : int;
  overload_cap : int;
  decision_threshold : int;
}

let config_of_params (p : Params.t) =
  let a_log_n = p.Params.a2e_requests_per_label in
  {
    labels = p.Params.a2e_labels;
    requests_per_label = a_log_n;
    iterations = p.Params.a2e_iterations;
    overload_cap =
      Stdlib.max (4 * a_log_n)
        (Intmath.isqrt p.Params.n * Intmath.ceil_log2 p.Params.n);
    decision_threshold =
      int_of_float
        (Float.ceil ((0.5 +. (3.0 *. p.Params.epsilon /. 8.0)) *. float_of_int a_log_n));
  }

let rounds_needed config = (2 * config.iterations) + 1

type state = {
  mutable committed : int option;
  mutable sent : (int * int) list;  (* (destination, label) this iteration *)
  rng : Prng.t;
}

type result = {
  decided : int option array;
  iterations_run : int;
  rounds : int;
  max_sent_bits : int;
  overloaded_events : int;
}

let run ~net ~config ~knows ~coin =
  let n = Ks_sim.Net.n net in
  let overloaded = ref 0 in
  (* Tally this iteration's replies and decide (step 4 of Algorithm 3). *)
  let process_replies st ~me:_ inbox =
    if st.committed = None then begin
      (* Valid replies: one per (responder, label) pair we actually
         queried; everything else is noise the adversary fabricated. *)
      let queried = Hashtbl.create 64 in
      List.iter (fun (dst, label) -> Hashtbl.replace queried (dst, label) ()) st.sent;
      let counted = Hashtbl.create 64 in
      let per_label_count = Hashtbl.create 16 in
      let per_label_value = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e.payload with
          | Reply { label; value } ->
            let key = (e.src, label) in
            if Hashtbl.mem queried key && not (Hashtbl.mem counted key) then begin
              Hashtbl.add counted key ();
              let c = Option.value ~default:0 (Hashtbl.find_opt per_label_count label) in
              Hashtbl.replace per_label_count label (c + 1);
              let vkey = (label, value) in
              let cv = Option.value ~default:0 (Hashtbl.find_opt per_label_value vkey) in
              Hashtbl.replace per_label_value vkey (cv + 1)
            end
          | Request _ -> ())
        inbox;
      (* i_max: the label with the most replies (ties to lowest label). *)
      let imax = ref None in
      Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_cmp
        (fun label count ->
          match !imax with
          | None -> imax := Some (label, count)
          | Some (l, c) ->
            if count > c || (count = c && label < l) then imax := Some (label, count))
        per_label_count;
      match !imax with
      | None -> ()
      | Some (label, _) ->
        (* Sorted traversal: if several values of [i_max] pass the
           threshold, every replica commits to the smallest, not to
           whichever bucket order served first. *)
        Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.pair_cmp
          (fun (l, value) cv ->
            if l = label && cv >= config.decision_threshold && st.committed = None
            then st.committed <- Some value)
          per_label_value
    end
  in
  let protocol =
    {
      Ks_sim.Engine.init =
        (fun p ->
          (* Everyone — knowledgeable or confused — decides through the
             reply-counting rule; beliefs are only used to serve replies.
             This keeps Lemma 7(2): a good processor either converges on
             the majority message or stays undecided. *)
          { committed = None; sent = []; rng = Ks_sim.Net.proc_rng net p });
      step =
        (fun ~round ~me st ~inbox ->
          let iteration = round / 2 in
          if round mod 2 = 0 then begin
            (* Request phase: first bank the previous iteration's replies,
               then fan out fresh requests for every label. *)
            if round > 0 then process_replies st ~me inbox;
            if iteration >= config.iterations then (st, [])
            else begin
              let sent = ref [] in
              let msgs = ref [] in
              for label = 0 to config.labels - 1 do
                (* Distinct responders per label: replies are counted once
                   per (responder, label), so duplicates would only waste
                   requests. *)
                let dsts =
                  if config.requests_per_label <= n then
                    Prng.sample_without_replacement st.rng ~n
                      ~k:config.requests_per_label
                  else Array.init config.requests_per_label (fun _ -> Prng.int st.rng n)
                in
                Array.iter
                  (fun dst ->
                    sent := (dst, label) :: !sent;
                    msgs := { src = me; dst; payload = Request label } :: !msgs)
                  dsts
              done;
              st.sent <- !sent;
              (st, !msgs)
            end
          end
          else begin
            (* Respond phase: knowledgeable processors answer the agreed
               label, unless overloaded.  A sender claiming more than n-1
               requests is evidently corrupt and is ignored wholesale. *)
            match knows me with
            | None -> (st, [])
            | Some m ->
              (match coin ~iteration me with
               | None -> (st, [])
               | Some k ->
                 let per_sender = Hashtbl.create 64 in
                 List.iter
                   (fun e ->
                     match e.payload with
                     | Request _ ->
                       let c =
                         Option.value ~default:0 (Hashtbl.find_opt per_sender e.src)
                       in
                       Hashtbl.replace per_sender e.src (c + 1)
                     | Reply _ -> ())
                   inbox;
                 (* Lemma 9's guards, scaled to the per-label fan-out: a
                    sender claiming more than n-1 requests is evidently
                    corrupt, and total reads per iteration are capped at a
                    constant multiple of the legitimate expected volume
                    (labels × requests-per-label), so flooding buys the
                    adversary overloads, not unbounded work. *)
                 let read_cap =
                   Stdlib.max (n - 1)
                     (8 * config.labels * config.requests_per_label)
                 in
                 let read = ref 0 in
                 let requests_k =
                   List.filter
                     (fun e ->
                       match e.payload with
                       | Request label when Hashtbl.find per_sender e.src <= n - 1 ->
                         incr read;
                         !read <= read_cap && label = k
                       | Request _ | Reply _ -> false)
                     inbox
                 in
                 if List.length requests_k > config.overload_cap then begin
                   incr overloaded;
                   (st, [])
                 end
                 else
                   ( st,
                     List.map
                       (fun e ->
                         { src = me; dst = e.src; payload = Reply { label = k; value = m } })
                       requests_k ))
          end);
    }
  in
  let rounds = rounds_needed config in
  let states = Ks_sim.Engine.run net protocol ~rounds in
  List.iter
    (fun p ->
      match states.(p).committed with
      | Some v -> Ks_sim.Net.decide net p v
      | None -> ())
    (Ks_sim.Net.good_procs net);
  Ks_sim.Net.emit_meter net;
  {
    decided = Array.map (fun st -> st.committed) states;
    iterations_run = config.iterations;
    rounds;
    max_sent_bits =
      Ks_sim.Meter.max_sent_bits (Ks_sim.Net.meter net)
        ~over:(Ks_sim.Net.good_procs net);
    overloaded_events = !overloaded;
  }
