type t = {
  monitors : Monitor.t list;
  trace : Trace.sink option;
  close_trace : bool;
  mutable violations : Monitor.violation list; (* newest first *)
  mutable net_counter : int;
  mutable finished : bool;
  record : Monitor.violation -> unit;
}

let violation_event (v : Monitor.violation) =
  Event.Violation
    {
      invariant = v.Monitor.invariant;
      net = v.Monitor.net;
      proc = Option.value ~default:(-1) v.Monitor.proc;
      round = v.Monitor.round;
      observed = v.Monitor.observed;
      bound = v.Monitor.bound;
      detail = v.Monitor.detail;
    }

let record t v =
  t.violations <- v :: t.violations;
  (* Violations land in the trace too, but are never fed back to
     monitors — no re-entrancy. *)
  match t.trace with Some sink -> Trace.emit sink (violation_event v) | None -> ()

(* The violation callback is built once here, so feeding an event
   allocates nothing beyond what the monitors themselves do. *)
let create ?trace ?(close_trace = true) monitors =
  let rec t =
    {
      monitors;
      trace;
      close_trace;
      violations = [];
      net_counter = 0;
      finished = false;
      record = (fun v -> record t v);
    }
  in
  t

let rec feed_all emit ev = function
  | [] -> ()
  | m :: rest ->
    Monitor.feed m ~emit ev;
    feed_all emit ev rest

let emit t ev =
  (match t.trace with Some sink -> Trace.emit sink ev | None -> ());
  feed_all t.record ev t.monitors

let register_net t ~label ~n ~budget =
  t.net_counter <- t.net_counter + 1;
  let id = t.net_counter in
  emit t (Event.Run_start { net = id; label; n; budget });
  id

let phase t name = emit t (Event.Phase { name })
let violations t = List.rev t.violations

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter (fun m -> Monitor.finish m ~emit:t.record) t.monitors;
    match t.trace with
    | Some sink -> if t.close_trace then Trace.close sink else Trace.flush sink
    | None -> ()
  end;
  violations t

let render_violations vs =
  let fp = function Some p -> string_of_int p | None -> "-" in
  let rows =
    List.map
      (fun (v : Monitor.violation) ->
        [
          v.Monitor.invariant;
          string_of_int v.Monitor.net;
          fp v.Monitor.proc;
          (if v.Monitor.round < 0 then "-" else string_of_int v.Monitor.round);
          Printf.sprintf "%.0f" v.Monitor.observed;
          Printf.sprintf "%.0f" v.Monitor.bound;
          v.Monitor.detail;
        ])
      vs
  in
  Ks_stdx.Table.render ~title:"INVARIANT VIOLATIONS"
    ~headers:[ "invariant"; "net"; "proc"; "round"; "observed"; "bound"; "detail" ]
    rows

(* --- Ambient installation.  [Ks_sim.Net.create] attaches the ambient
   hub by default, so wrapping any existing entry point in
   [with_ambient] monitors every network it creates without threading a
   parameter through the whole stack. --- *)

let current : t option ref = ref None
let ambient () = !current

let with_ambient t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f
