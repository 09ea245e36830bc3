(* Reference decoder: the pre-optimization robust-decoding kernels, kept
   verbatim as an oracle for equivalence testing.

   The optimized `Shamir.best_codeword` skips windows inside scored
   supports, scores the rest on a per-call table of 1/(x_p − x_q), and
   falls back to Gao's decoder where this module runs Berlekamp–Welch;
   `Poly.lagrange_eval` now routes through `Poly.evaluator`.  Both are
   claimed to be *behaviour-preserving* — same polynomial, same
   None-on-tie verdicts, bit for bit.  This module is the slow, obviously
   correct original that the property tests in `test_shamir.ml` compare
   against, and the only home of Berlekamp–Welch (and of `Linalg`, its
   Gaussian elimination).  Do not "optimize" this file; its value is
   that it never changed.  It runs over Z_p, the one field of the stack. *)

module Zp = Ks_field.Zp
module P = Ks_field.Poly
module L = Linalg
module Sh = Ks_shamir.Shamir

let point index = Zp.of_int (index + 1)

(* Pre-optimization Shamir.dedup: first-seen order per distinct index. *)
let dedup shares =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s.Sh.index then false
      else begin
        Hashtbl.add seen s.Sh.index ();
        true
      end)
    shares

(* Pre-optimization Poly.lagrange_eval: per-term numerator/denominator
   folds with a field division per point. *)
let lagrange_eval pts x =
  let term (xi, yi) =
    let num, denom =
      List.fold_left
        (fun (num, denom) (xj, _) ->
          if Zp.equal xi xj then (num, denom)
          else (Zp.mul num (Zp.sub x xj), Zp.mul denom (Zp.sub xi xj)))
        (Zp.one, Zp.one)
        pts
    in
    Zp.mul yi (Zp.div num denom)
  in
  List.fold_left (fun acc pt -> Zp.add acc (term pt)) Zp.zero pts

(* Pre-optimization Berlekamp–Welch with per-entry Zp.pow rows. *)
let berlekamp_welch_poly ~threshold pts =
  let m = Array.length pts in
  let k = threshold + 1 in
  if m < k then None
  else begin
    let e_max = (m - k) / 2 in
    let matches poly =
      Array.fold_left
        (fun acc (x, y) -> if Zp.equal (P.eval poly x) y then acc + 1 else acc)
        0 pts
    in
    let try_e e =
      let nq = k + e in
      let ncols = nq + e in
      let a =
        Array.init m (fun i ->
            let x, y = pts.(i) in
            Array.init ncols (fun c ->
                if c < nq then Zp.pow x c else Zp.neg (Zp.mul y (Zp.pow x (c - nq)))))
      in
      let b =
        Array.init m (fun i ->
            let x, y = pts.(i) in
            Zp.mul y (Zp.pow x e))
      in
      match L.solve a b with
      | None -> None
      | Some sol ->
        let q = P.of_coeffs (Array.sub sol 0 nq) in
        let e_coeffs = Array.append (Array.sub sol nq e) [| Zp.one |] in
        let err = P.of_coeffs e_coeffs in
        let quot, rem = P.divmod q err in
        if P.degree rem >= 0 then None
        else if P.degree quot > threshold then None
        else if matches quot >= Stdlib.max (k + 1) (m - e_max) then Some quot
        else None
    in
    let rec search e =
      if e < 0 then None
      else match try_e e with Some p -> Some p | None -> search (e - 1)
    in
    search e_max
  end

(* Pre-optimization best_codeword: no support-mask memoization, naive
   O(k²)-per-eval window evaluators with a division per weight. *)
let best_codeword ~threshold pts =
  let m = Array.length pts in
  let k = threshold + 1 in
  if m < k + 1 then None
  else if m > 62 then berlekamp_welch_poly ~threshold pts
  else begin
    let e_max = (m - k) / 2 in
    let radius_accept = Stdlib.max (k + 1) (m - e_max) in
    let support_of eval =
      let mask = ref 0 and count = ref 0 in
      for p = 0 to m - 1 do
        let x, y = pts.(p) in
        if Zp.equal (eval x) y then begin
          mask := !mask lor (1 lsl p);
          incr count
        end
      done;
      (!mask, !count)
    in
    let strides =
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      List.filter (fun s -> s < m && m / gcd s m >= k) [ 1; 3; 7; 11; 13 ]
    in
    let subsets =
      List.concat_map
        (fun s ->
          List.init m (fun start -> Array.init k (fun j -> (start + (j * s)) mod m)))
        strides
    in
    let best = ref (0, 0) and second_count = ref 0 in
    let winner = ref None in
    let eval_of_subset idx =
      let weights =
        Array.map
          (fun i ->
            let xi, yi = pts.(i) in
            let den = ref Zp.one in
            Array.iter
              (fun j ->
                if j <> i then begin
                  let xj, _ = pts.(j) in
                  den := Zp.mul !den (Zp.sub xi xj)
                end)
              idx;
            Zp.div yi !den)
          idx
      in
      fun x ->
        let acc = ref Zp.zero in
        for a = 0 to k - 1 do
          let prod = ref weights.(a) in
          for b = 0 to k - 1 do
            if b <> a then begin
              let xb, _ = pts.(idx.(b)) in
              prod := Zp.mul !prod (Zp.sub x xb)
            end
          done;
          acc := Zp.add !acc !prod
        done;
        !acc
    in
    let rec scan = function
      | [] -> ()
      | idx :: rest ->
        let eval = eval_of_subset idx in
        let mask, count = support_of eval in
        if count >= radius_accept then winner := Some idx
        else begin
          let bmask, bcount = !best in
          if mask <> bmask then begin
            if count > bcount then begin
              if bcount > !second_count then second_count := bcount;
              best := (mask, count)
            end
            else if count > !second_count then second_count := count
          end;
          scan rest
        end
    in
    scan subsets;
    match !winner with
    | Some idx ->
      Some (P.interpolate (List.map (fun i -> pts.(i)) (Array.to_list idx)))
    | None ->
      let bw = berlekamp_welch_poly ~threshold pts in
      let bw_scored =
        Option.map
          (fun poly ->
            let mask, count = support_of (P.eval poly) in
            (poly, mask, count))
          bw
      in
      let bmask, bcount = !best in
      (match bw_scored with
       | Some (poly, mask, count) when mask <> bmask && count > bcount ->
         if count >= k + 1 && count > bcount then Some poly else None
       | _ ->
         if bcount >= k + 1 && bcount > !second_count then begin
           let pts_of_mask =
             List.filteri (fun i _ -> bmask land (1 lsl i) <> 0)
               (Array.to_list pts)
           in
           let chosen = List.filteri (fun i _ -> i < k) pts_of_mask in
           Some (P.interpolate chosen)
         end
         else None)
  end

let reconstruct_robust ~threshold shares =
  let shares = dedup shares in
  let pts = Array.of_list (List.map (fun s -> (point s.Sh.index, s.Sh.value)) shares) in
  Option.map (fun p -> P.eval p Zp.zero) (best_codeword ~threshold pts)
