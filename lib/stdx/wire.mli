(** Minimal binary wire format: length-delimited, varint-based encoding
    used to ground the simulator's bit accounting in real encoded sizes
    (a message is charged 8 × its encoded byte length plus the physical
    header, instead of a hand-estimated field sum).

    The encoding is deliberately boring: LEB128 varints for integers,
    length-prefixed byte strings, fixed tags chosen by the caller.  No
    framing beyond what the caller writes — the simulator's channels are
    reliable and message-oriented. *)

module Writer : sig
  type t

  val create : unit -> t

  (** [varint w v] — LEB128, non-negative values only (raises on
      negative). *)
  val varint : t -> int -> unit

  (** [byte w v] — one byte, [0, 255]. *)
  val byte : t -> int -> unit

  (** [bool w b] — one byte. *)
  val bool : t -> bool -> unit

  (** [u32 w v] — fixed four bytes, little endian, [0, 2^32). *)
  val u32 : t -> int -> unit

  (** [bytes w b] — length-prefixed blob. *)
  val bytes : t -> Bytes.t -> unit

  (** [word_array w a] — length-prefixed sequence of varints. *)
  val word_array : t -> int array -> unit

  val contents : t -> Bytes.t
  val length : t -> int
end

(** [varint_len v] — the number of bytes [Writer.varint] writes for
    [v], computed without encoding (codecs price messages with it). *)
val varint_len : int -> int

(** Typed decode failure.  Every decode path in the stack reports
    malformed input as one of these — never an uncaught exception, never
    silent acceptance of a mangled value. *)
type invalid =
  | Truncated  (** input ended mid-value (or a varint overflowed) *)
  | Trailing of int  (** [k] unconsumed bytes after a complete value *)
  | Bad_tag of int  (** unknown message tag *)
  | Out_of_range of { what : string; value : int; bound : int }
      (** a field failed its range check: [value] not in [\[0, bound)] *)

val invalid_to_string : invalid -> string

module Reader : sig
  type t

  exception Truncated
  (** Raised when reading past the end or on malformed input. *)

  exception Invalid of invalid
  (** Raised by {!fail} and the range-checked readers; {!decode} turns
      both exceptions into a typed [Error]. *)

  (** [fail inv] — abort the current decode with a typed reason. *)
  val fail : invalid -> 'a

  val of_bytes : Bytes.t -> t
  val varint : t -> int
  val byte : t -> int
  val bool : t -> bool
  val u32 : t -> int
  val bytes : t -> Bytes.t
  val word_array : t -> int array

  (** [varint_below r ~what ~bound] — a varint in [\[0, bound)], else
      [Invalid (Out_of_range _)]. *)
  val varint_below : t -> what:string -> bound:int -> int

  (** [u32_below r ~what ~bound] — a u32 in [\[0, bound)], else
      [Invalid (Out_of_range _)]. *)
  val u32_below : t -> what:string -> bound:int -> int

  (** [at_end r] — all input consumed. *)
  val at_end : t -> bool

  (** [remaining r] — unconsumed byte count. *)
  val remaining : t -> int
end

(** [decode data f] — run [f] over [data], requiring full consumption.
    Truncation, unknown tags, range violations and trailing bytes all
    come back as [Error]; the function never raises on malformed
    input. *)
val decode : Bytes.t -> (Reader.t -> 'a) -> ('a, invalid) result

