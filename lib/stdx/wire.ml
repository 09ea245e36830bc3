module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64

  let rec varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative";
    if v < 0x80 then Buffer.add_char t (Char.chr v)
    else begin
      Buffer.add_char t (Char.chr (0x80 lor (v land 0x7F)));
      varint t (v lsr 7)
    end

  let byte t v =
    if v < 0 || v > 0xFF then invalid_arg "Wire.Writer.byte: out of range";
    Buffer.add_char t (Char.chr v)

  let bool t b = byte t (if b then 1 else 0)

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.Writer.u32: out of range";
    byte t (v land 0xFF);
    byte t ((v lsr 8) land 0xFF);
    byte t ((v lsr 16) land 0xFF);
    byte t ((v lsr 24) land 0xFF)

  let bytes t b =
    varint t (Bytes.length b);
    Buffer.add_bytes t b

  let word_array t a =
    varint t (Array.length a);
    Array.iter (varint t) a

  let contents t = Buffer.to_bytes t
  let length t = Buffer.length t
end

let varint_len v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go v 1

type invalid =
  | Truncated
  | Trailing of int
  | Bad_tag of int
  | Out_of_range of { what : string; value : int; bound : int }

let invalid_to_string = function
  | Truncated -> "truncated input"
  | Trailing k -> Printf.sprintf "%d trailing byte(s) after a complete value" k
  | Bad_tag tag -> Printf.sprintf "unknown tag %d" tag
  | Out_of_range { what; value; bound } ->
    Printf.sprintf "%s = %d out of range [0, %d)" what value bound

module Reader = struct
  type t = { data : Bytes.t; mutable pos : int }

  exception Truncated
  exception Invalid of invalid

  let fail inv = raise (Invalid inv)

  let of_bytes data = { data; pos = 0 }

  let byte t =
    if t.pos >= Bytes.length t.data then raise Truncated;
    let v = Bytes.get_uint8 t.data t.pos in
    t.pos <- t.pos + 1;
    v

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise Truncated;
      let b = byte t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | _ -> raise Truncated

  let u32 t =
    let a = byte t in
    let b = byte t in
    let c = byte t in
    let d = byte t in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let bytes t =
    let len = varint t in
    if len < 0 || t.pos + len > Bytes.length t.data then raise Truncated;
    let b = Bytes.sub t.data t.pos len in
    t.pos <- t.pos + len;
    b

  let word_array t =
    let len = varint t in
    if len < 0 || len > Bytes.length t.data - t.pos then raise Truncated;
    Array.init len (fun _ -> varint t)

  let at_end t = t.pos = Bytes.length t.data
  let remaining t = Bytes.length t.data - t.pos

  (* Range-checked variants: the hardened decode paths use these so a
     malformed identifier is a typed [Invalid], not a silently accepted
     value that some later array access turns into an exception. *)

  let varint_below t ~what ~bound =
    let v = varint t in
    if v < 0 || v >= bound then fail (Out_of_range { what; value = v; bound });
    v

  let u32_below t ~what ~bound =
    let v = u32 t in
    if v < 0 || v >= bound then fail (Out_of_range { what; value = v; bound });
    v
end

(* [decode data f] — run reader [f] over all of [data], turning every
   failure mode into a typed [invalid]: truncation, unknown tags and
   out-of-range fields (via [Reader.fail]) and trailing garbage after a
   complete value.  The contract the fuzzers pin: never an exception. *)
let decode data f =
  let r = Reader.of_bytes data in
  match f r with
  | v -> if Reader.at_end r then Ok v else Error (Trailing (Reader.remaining r))
  | exception Reader.Truncated -> Error Truncated
  | exception Reader.Invalid inv -> Error inv
