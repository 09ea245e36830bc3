type t = int

let order = 256

let zero = 0
let one = 1

(* Multiplication by the generator 3 in GF(2^8)/0x11B, used to build the
   exp/log tables: exp.(i) = 3^i, log.(exp.(i)) = i. *)
let exp_table, log_table =
  let exp_table = Array.make 512 0 in
  let log_table = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    (* multiply !x by 3 = x * 2 xor x, with reduction *)
    let doubled = !x lsl 1 in
    let doubled = if doubled land 0x100 <> 0 then doubled lxor 0x11B else doubled in
    x := doubled lxor !x
  done;
  (* Duplicate so products of logs index without a modulo. *)
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done;
  (exp_table, log_table)

let of_int k =
  if k < 0 then invalid_arg "Gf256.of_int: negative";
  if k >= 256 then invalid_arg "Gf256.of_int: out of range";
  k

let to_int x = x
let equal = Int.equal

let add a b = a lxor b
let sub = add
let neg a = a

let mul a b = if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let inv x =
  if x = 0 then raise Division_by_zero;
  exp_table.(255 - log_table.(x))

let div a b = mul a (inv b)

let pow x e =
  if e < 0 then invalid_arg "Gf256.pow: negative exponent";
  if x = 0 then (if e = 0 then 1 else 0)
  else exp_table.(log_table.(x) * e mod 255)

let random rng = Ks_stdx.Prng.int rng 256

let random_nonzero rng = 1 + Ks_stdx.Prng.int rng 255

let pp fmt x = Format.fprintf fmt "0x%02x" x
