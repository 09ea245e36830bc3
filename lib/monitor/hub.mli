(** The hub fans one event stream out to a trace sink and a set of
    monitors, and collects the violations they emit.

    Wiring: [Ks_sim.Net.create] is the one place a hub attaches — an
    explicit [?hub] argument, or else the {e ambient} hub installed by
    {!with_ambient}.  The net registers itself via {!register_net}, and
    every subsequent exchange feeds events here. *)

type t

(** [create ?trace ?close_trace monitors] — a hub feeding every event to
    [trace] (when given) and then to [monitors], in list order.
    [close_trace] (default [true]) makes {!finish} close the sink; pass
    [false] when several hubs share one sink — it is flushed instead,
    and the owner closes it. *)
val create : ?trace:Trace.sink -> ?close_trace:bool -> Monitor.t list -> t

(** [emit t ev] — write to the trace and feed every monitor.  Allocates
    nothing of its own per event. *)
val emit : t -> Event.t -> unit

(** [register_net t ~label ~n ~budget] — allocate a fresh net id and
    emit its [Run_start]. *)
val register_net : t -> label:string -> n:int -> budget:int -> int

(** [phase t name] — emit a protocol-phase marker. *)
val phase : t -> string -> unit

(** [finish t] — run every monitor's end-of-run check, close the trace,
    and return all violations, oldest first.  Idempotent. *)
val finish : t -> Monitor.violation list

(** [render_violations vs] — the violation table ([Ks_stdx.Table]). *)
val render_violations : Monitor.violation list -> string

(** {1 Ambient installation} *)

(** The hub new networks attach to when no explicit [?hub] is given. *)
val ambient : unit -> t option

(** [with_ambient t f] — run [f] with [t] installed as the ambient hub
    (restored afterwards, exception-safe). *)
val with_ambient : t -> (unit -> 'a) -> 'a
