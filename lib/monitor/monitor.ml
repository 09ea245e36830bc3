type violation = {
  invariant : string;
  net : int;
  proc : int option;
  round : int;
  observed : float;
  bound : float;
  detail : string;
}

type t = {
  name : string;
  on_event : emit:(violation -> unit) -> Event.t -> unit;
  at_finish : emit:(violation -> unit) -> unit;
}

let make ~name ?(on_event = fun ~emit:_ _ -> ()) ?(at_finish = fun ~emit:_ -> ()) () =
  { name; on_event; at_finish }

let name t = t.name
let feed t ~emit ev = t.on_event ~emit ev
let finish t ~emit = t.at_finish ~emit

let log2f n = log (float_of_int (Stdlib.max 2 n)) /. log 2.0

(* --- Built-in monitors.  Each keeps per-net state keyed by the net id
   carried on every event, so monitors survive multi-network runs (the
   full stack uses one net per phase, concurrently metered). --- *)

let corruption_budget ?limit () =
  make ~name:"corruption-budget"
    ~on_event:(fun ~emit ev ->
      match ev with
      | Event.Corrupt { net; round; proc; total; budget } ->
        let bound = match limit with Some l -> l | None -> budget in
        if total > bound then
          emit
            {
              invariant = "corruption-budget";
              net;
              proc = Some proc;
              round;
              observed = float_of_int total;
              bound = float_of_int bound;
              detail = Printf.sprintf "corruption #%d of processor %d exceeds %d" total proc bound;
            }
      | _ -> ())
    ()

(* Per-net state of the budget monitors, made at a watched net's
   [Run_start]: the bound at the net's size and one counter per slot
   (per processor for [bit_budget], a single one for [round_bound]).  A
   counter of -1 marks its slot as already flagged, so each fires once.
   Unwatched nets have no entry, and their events fall through. *)
type scope = { bound : float; counts : int array }

let scope_table ?(labels = []) ~bound ~slots () =
  let scopes : (int, scope) Hashtbl.t = Hashtbl.create 8 in
  let on_run_start ~net ~label ~n =
    if labels = [] || List.mem label labels then
      Hashtbl.replace scopes net { bound = bound ~n; counts = Array.make (slots n) 0 }
    else Hashtbl.remove scopes net
  in
  (scopes, on_run_start)

(* Theorem 1's per-processor budget, with a practical-profile constant:
   flag any honest processor whose metered sent bits exceed
   [c · √n · log₂³ n].  The default [c] leaves headroom above the
   measured practical-profile constants (T1), so firing means a genuine
   accounting regression, not noise. *)
let default_bit_bound ?(c = 4096.0) ~n () = c *. sqrt (float_of_int n) *. (log2f n ** 3.0)

let bit_budget ?labels ?(bound = fun ~n -> default_bit_bound ~n ()) () =
  let scopes, on_run_start = scope_table ?labels ~bound ~slots:Fun.id () in
  make ~name:"bit-budget"
    ~on_event:(fun ~emit ev ->
      match ev with
      | Event.Run_start { net; label; n; _ } -> on_run_start ~net ~label ~n
      | Event.Send { net; round; src; bits; adv = false; _ } ->
        (match Hashtbl.find scopes net with
         | exception Not_found -> ()
         | { bound = b; counts = sent } ->
           if src >= 0 && src < Array.length sent && sent.(src) >= 0 then begin
             let total = sent.(src) + bits in
             if float_of_int total > b then begin
               sent.(src) <- -1;
               emit
                 {
                   invariant = "bit-budget";
                   net;
                   proc = Some src;
                   round;
                   observed = float_of_int total;
                   bound = b;
                   detail =
                     Printf.sprintf "processor %d sent %d bits > %.0f (c*sqrt n*lg^3 n)"
                       src total b;
                 }
             end
             else sent.(src) <- total
           end)
      | _ -> ())
    ()

(* Polylogarithmic latency: flag any watched network whose round count
   exceeds [c · log₂² n].  The default constant covers the practical
   profile's tree phase, the deepest of the stack. *)
let default_round_bound ?(c = 64.0) ~n () = c *. (log2f n ** 2.0)

let round_bound ?labels ?(bound = fun ~n -> default_round_bound ~n ()) () =
  let scopes, on_run_start = scope_table ?labels ~bound ~slots:(fun _ -> 1) () in
  make ~name:"round-bound"
    ~on_event:(fun ~emit ev ->
      match ev with
      | Event.Run_start { net; label; n; _ } -> on_run_start ~net ~label ~n
      | Event.Round_start { net; round } ->
        (match Hashtbl.find scopes net with
         | exception Not_found -> ()
         | { bound = b; counts = flagged } ->
           if float_of_int (round + 1) > b && flagged.(0) >= 0 then begin
             flagged.(0) <- -1;
             emit
               {
                 invariant = "round-bound";
                 net;
                 proc = None;
                 round;
                 observed = float_of_int (round + 1);
                 bound = b;
                 detail = Printf.sprintf "round %d exceeds %.0f (c*lg^2 n)" (round + 1) b;
               }
           end)
      | _ -> ())
    ()

let agreement () =
  (* Per net: the reference decision (first good decider) and each
     processor's recorded decision; any conflict — across processors or a
     re-decision by one processor — is a violation. *)
  let reference : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let decided : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  make ~name:"agreement"
    ~on_event:(fun ~emit ev ->
      match ev with
      | Event.Decide { net; proc; value } ->
        (match Hashtbl.find_opt decided (net, proc) with
         | Some prior when prior <> value ->
           emit
             {
               invariant = "agreement";
               net;
               proc = Some proc;
               round = -1;
               observed = float_of_int value;
               bound = float_of_int prior;
               detail = Printf.sprintf "processor %d re-decided %d after %d" proc value prior;
             }
         | Some _ -> ()
         | None ->
           Hashtbl.replace decided (net, proc) value;
           (match Hashtbl.find_opt reference net with
            | None -> Hashtbl.replace reference net (proc, value)
            | Some (p0, v0) ->
              if v0 <> value then
                emit
                  {
                    invariant = "agreement";
                    net;
                    proc = Some proc;
                    round = -1;
                    observed = float_of_int value;
                    bound = float_of_int v0;
                    detail =
                      Printf.sprintf "processor %d decided %d but processor %d decided %d"
                        proc value p0 v0;
                  }))
      | _ -> ())
    ()

let validity ~inputs =
  let unanimous =
    if Array.length inputs = 0 then None
    else if Array.for_all (fun v -> v = inputs.(0)) inputs then Some inputs.(0)
    else None
  in
  make ~name:"validity"
    ~on_event:(fun ~emit ev ->
      match (ev, unanimous) with
      | Event.Decide { net; proc; value }, Some v when value <> v ->
        emit
          {
            invariant = "validity";
            net;
            proc = Some proc;
            round = -1;
            observed = float_of_int value;
            bound = float_of_int v;
            detail =
              Printf.sprintf "unanimous input %d but processor %d decided %d" v proc value;
          }
      | _ -> ())
    ()

let decided_everywhere ~n =
  (* Termination: every one of the [n] processors that stayed good must
     have decided by the end of the run.  Good = never seen in a Corrupt
     event on any net. *)
  let corrupt : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let decided : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  make ~name:"termination"
    ~on_event:(fun ~emit:_ ev ->
      match ev with
      | Event.Corrupt { proc; _ } -> Hashtbl.replace corrupt proc ()
      | Event.Decide { proc; _ } -> Hashtbl.replace decided proc ()
      | _ -> ())
    ~at_finish:(fun ~emit ->
      for p = 0 to n - 1 do
        if (not (Hashtbl.mem corrupt p)) && not (Hashtbl.mem decided p) then
          emit
            {
              invariant = "termination";
              net = 0;
              proc = Some p;
              round = -1;
              observed = 0.0;
              bound = 1.0;
              detail = Printf.sprintf "good processor %d never decided" p;
            }
      done)
    ()
