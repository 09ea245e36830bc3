type t = int

let p = 2147483647

let zero = 0
let one = 1

let of_int k =
  if k < 0 then invalid_arg "Zp.of_int: negative";
  if k >= p then invalid_arg "Zp.of_int: out of range";
  k

let to_int x = x
let equal = Int.equal

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b =
  let d = a - b in
  if d < 0 then d + p else d

let neg a = if a = 0 then 0 else p - a

(* Mersenne reduction: since 2^31 = 1 (mod p), fold the high bits onto
   the low ones instead of dividing.  For canonical inputs the product is
   < 2^62, so two folds bring it under 2p and one conditional subtract
   canonicalises — no hardware [mod] on the hot path. *)
let mul a b =
  let x = a * b in
  let x = (x land p) + (x lsr 31) in
  let x = (x land p) + (x lsr 31) in
  if x >= p then x - p else x

let pow x e =
  if e < 0 then invalid_arg "Zp.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc base) (mul base base) (e asr 1)
    else go acc (mul base base) (e asr 1)
  in
  go one x e

let inv x =
  if x = 0 then raise Division_by_zero;
  pow x (p - 2)

let div a b = mul a (inv b)

let random rng = Ks_stdx.Prng.int rng p

let random_nonzero rng = 1 + Ks_stdx.Prng.int rng (p - 1)

let pp fmt x = Format.fprintf fmt "%d" x
