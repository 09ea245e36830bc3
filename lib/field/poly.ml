type t = Zp.t array
(* Invariant: either empty, or the last coefficient is non-zero. *)

let normalise a =
  let n = ref (Array.length a) in
  while !n > 0 && Zp.equal a.(!n - 1) Zp.zero do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero = [||]
let of_coeffs a = normalise (Array.copy a)
let coeffs t = Array.copy t
let degree t = Array.length t - 1

let equal a b =
  Array.length a = Array.length b
  && begin
       let rec go i = i >= Array.length a || (Zp.equal a.(i) b.(i) && go (i + 1)) in
       go 0
     end

let eval t x =
  let acc = ref Zp.zero in
  for i = Array.length t - 1 downto 0 do
    acc := Zp.add (Zp.mul !acc x) t.(i)
  done;
  !acc

let add a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let get c i = if i < Array.length c then c.(i) else Zp.zero in
  normalise (Array.init n (fun i -> Zp.add (get a i) (get b i)))

let sub a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let get c i = if i < Array.length c then c.(i) else Zp.zero in
  normalise (Array.init n (fun i -> Zp.sub (get a i) (get b i)))

let scale k t =
  if Zp.equal k Zp.zero then zero else Array.map (Zp.mul k) t

let mul a b =
  if Array.length a = 0 || Array.length b = 0 then zero
  else begin
    let out = Array.make (Array.length a + Array.length b - 1) Zp.zero in
    Array.iteri
      (fun i ai ->
        Array.iteri (fun j bj -> out.(i + j) <- Zp.add out.(i + j) (Zp.mul ai bj)) b)
      a;
    normalise out
  end

let divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  let db = degree b in
  let lead_inv = Zp.inv b.(db) in
  let rem = Array.copy a in
  let dq = degree a - db in
  if dq < 0 then (zero, normalise rem)
  else begin
    let q = Array.make (dq + 1) Zp.zero in
    for i = dq downto 0 do
      let coeff = Zp.mul rem.(i + db) lead_inv in
      q.(i) <- coeff;
      if not (Zp.equal coeff Zp.zero) then
        for j = 0 to db do
          rem.(i + j) <- Zp.sub rem.(i + j) (Zp.mul coeff b.(j))
        done
    done;
    (normalise q, normalise rem)
  end

let random rng ~degree ~const =
  if degree < 0 then invalid_arg "Poly.random: negative degree";
  let a = Array.init (degree + 1) (fun _ -> Zp.random rng) in
  a.(0) <- const;
  normalise a

let check_distinct pts =
  let rec go = function
    | [] -> ()
    | (x, _) :: rest ->
      if List.exists (fun (x', _) -> Zp.equal x x') rest then
        invalid_arg "Poly.interpolate: duplicate abscissa";
      go rest
  in
  if pts = [] then invalid_arg "Poly.interpolate: no points";
  go pts

let interpolate pts =
  check_distinct pts;
  (* Sum of y_i * prod_{j<>i} (X - x_j) / (x_i - x_j). *)
  let basis (xi, yi) =
    let num, denom =
      List.fold_left
        (fun (num, denom) (xj, _) ->
          if Zp.equal xi xj then (num, denom)
          else (mul num (of_coeffs [| Zp.neg xj; Zp.one |]), Zp.mul denom (Zp.sub xi xj)))
        (of_coeffs [| Zp.one |], Zp.one)
        pts
    in
    scale (Zp.mul yi (Zp.inv denom)) num
  in
  List.fold_left (fun acc pt -> add acc (basis pt)) zero pts

(* Montgomery batch inversion: invert k nonzero elements with a single
   field inversion and 3(k-1) multiplications. *)
let batch_inv a =
  let k = Array.length a in
  if k = 0 then [||]
  else begin
    let prefix = Array.make k Zp.one in
    prefix.(0) <- a.(0);
    for i = 1 to k - 1 do
      prefix.(i) <- Zp.mul prefix.(i - 1) a.(i)
    done;
    let out = Array.make k Zp.zero in
    let inv_tail = ref (Zp.inv prefix.(k - 1)) in
    for i = k - 1 downto 1 do
      out.(i) <- Zp.mul !inv_tail prefix.(i - 1);
      inv_tail := Zp.mul !inv_tail a.(i)
    done;
    out.(0) <- !inv_tail;
    out
  end

let evaluator pts =
  check_distinct pts;
  let pts = Array.of_list pts in
  let k = Array.length pts in
  let xs = Array.map fst pts in
  (* Barycentric-style precomputation: c_i = y_i / prod_{j<>i} (x_i -
     x_j), one batch inversion for the whole point set. *)
  let denoms =
    Array.mapi
      (fun i xi ->
        let d = ref Zp.one in
        Array.iteri (fun j xj -> if j <> i then d := Zp.mul !d (Zp.sub xi xj)) xs;
        !d)
      xs
  in
  let inv_denoms = batch_inv denoms in
  let cs = Array.mapi (fun i (_, yi) -> Zp.mul yi inv_denoms.(i)) pts in
  fun x ->
    (* p(x) = sum_i c_i * prod_{j<>i} (x - x_j), with the hole products
       from prefix/suffix arrays: O(k) multiplications, no division.
       At x = x_i every other term vanishes and the sum is y_i. *)
    let prefix = Array.make (k + 1) Zp.one in
    for i = 0 to k - 1 do
      prefix.(i + 1) <- Zp.mul prefix.(i) (Zp.sub x xs.(i))
    done;
    let acc = ref Zp.zero in
    let suffix = ref Zp.one in
    for i = k - 1 downto 0 do
      acc := Zp.add !acc (Zp.mul cs.(i) (Zp.mul prefix.(i) !suffix));
      suffix := Zp.mul !suffix (Zp.sub x xs.(i))
    done;
    !acc

let lagrange_eval pts x = evaluator pts x

let pp fmt t =
  if Array.length t = 0 then Format.fprintf fmt "0"
  else
    Array.iteri
      (fun i c ->
        if i > 0 then Format.fprintf fmt " + ";
        Format.fprintf fmt "%a·X^%d" Zp.pp c i)
      t
