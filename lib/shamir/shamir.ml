module Zp = Ks_field.Zp
module P = Ks_field.Poly

type share = { index : int; value : Zp.t }

let point index = Zp.of_int (index + 1)

let deal rng ~threshold ~holders secret =
  if threshold < 0 then invalid_arg "Shamir.deal: negative threshold";
  if holders <= threshold then invalid_arg "Shamir.deal: holders <= threshold";
  if holders >= Zp.p - 1 then invalid_arg "Shamir.deal: too many holders for field";
  let poly = P.random rng ~degree:threshold ~const:secret in
  Array.init holders (fun index -> { index; value = P.eval poly (point index) })

let deal_at rng ~threshold ~xs secret =
  if threshold < 0 then invalid_arg "Shamir.deal_at: negative threshold";
  let holders = Array.length xs in
  if holders <= threshold then invalid_arg "Shamir.deal_at: holders <= threshold";
  Array.iter (fun x -> if x < 0 then invalid_arg "Shamir.deal_at: negative x") xs;
  let poly = P.random rng ~degree:threshold ~const:secret in
  Array.map (fun index -> { index; value = P.eval poly (point index) }) xs

(* Keep one item per distinct index, in first-seen order.  Protocol
   indices are small, so a one-word bitmask usually replaces the
   hashtable; the hashtable remains for out-of-range indices. *)
let rec small_indices index = function
  | [] -> true
  | it :: rest ->
    let i = index it in
    i >= 0 && i < 63 && small_indices index rest

let[@tail_mod_cons] rec dedup_mask index seen = function
  | [] -> []
  | it :: rest ->
    let bit = 1 lsl index it in
    if seen land bit <> 0 then dedup_mask index seen rest
    else it :: dedup_mask index (seen lor bit) rest

let dedup_by index items =
  if small_indices index items then dedup_mask index 0 items
  else begin
    let seen = Hashtbl.create 16 in
    List.filter
      (fun it ->
        if Hashtbl.mem seen (index it) then false
        else begin
          Hashtbl.add seen (index it) ();
          true
        end)
      items
  end

let dedup shares = dedup_by (fun s -> s.index) shares

let reconstruct ~threshold shares =
  let shares = dedup shares in
  if List.length shares < threshold + 1 then None
  else begin
    let chosen = List.filteri (fun i _ -> i <= threshold) shares in
    let pts = List.map (fun s -> (point s.index, s.value)) chosen in
    Some (P.lagrange_eval pts Zp.zero)
  end

(* The m×m table of 1/(x_p − x_q), entry [p * m + q] (the diagonal is
   unused).  Montgomery's batch inversion runs in place: the upper
   triangle first holds the differences and the lower triangle the
   running products before each, so one field inversion serves all
   m(m−1)/2 pairs and nothing else is allocated.  The table is built
   per call, from the call's own points: decodes draw their x-points
   from many different sets, so a table shared across calls would have
   to be keyed by point set and would mostly grow. *)
let inverse_table pts =
  let m = Array.length pts in
  let table = Array.make (m * m) Zp.one in
  let acc = ref Zp.one in
  for p = 0 to m - 1 do
    for q = p + 1 to m - 1 do
      let d = Zp.sub (fst pts.(p)) (fst pts.(q)) in
      table.((p * m) + q) <- d;
      table.((q * m) + p) <- !acc;
      acc := Zp.mul !acc d
    done
  done;
  (* Walk back: [inv] is the inverse of the product of the differences
     up to and including the current pair. *)
  let inv = ref (Zp.inv !acc) in
  for p = m - 1 downto 0 do
    for q = m - 1 downto p + 1 do
      let d = table.((p * m) + q) in
      let r = Zp.mul !inv table.((q * m) + p) in
      inv := Zp.mul !inv d;
      table.((p * m) + q) <- r;
      table.((q * m) + p) <- Zp.neg r
    done
  done;
  table

(* Flat polynomials: coefficients lowest degree first, in arrays sized
   for the largest degree a decode reaches, with the degree tracked
   beside them. *)

(* [a] of degree [deg] (slot [deg + 1] zero) becomes a·(X − x). *)
let mul_linear a deg x =
  for j = deg + 1 downto 1 do
    a.(j) <- Zp.sub a.(j - 1) (Zp.mul x a.(j))
  done;
  a.(0) <- Zp.neg (Zp.mul x a.(0))

(* The degree of the polynomial in slots 0..hi: its highest non-zero
   slot, -1 for zero. *)
let rec degree a hi =
  if hi < 0 || not (Zp.equal a.(hi) Zp.zero) then hi else degree a (hi - 1)

(* a <- a − c·X^s·b, for [b] of degree [db]. *)
let sub_shifted a b db c s =
  for j = 0 to db do
    a.(j + s) <- Zp.sub a.(j + s) (Zp.mul c b.(j))
  done

(* Gao's unique decoder (S. Gao, "A new algorithm for decoding
   Reed–Solomon codes", 2003), in place on four flat arrays of m + 1
   coefficients.  [inv] is [inverse_table pts].

   g1 interpolates all m points (Newton divided differences through
   [inv], expanded by Horner) and g0 = Π (X − x_i).  The extended
   Euclidean algorithm on (g0, g1) stops at the first remainder g of
   degree < (m + k)/2, with g = u·g0 + v·g1; the message is g / v when
   that division is exact and of degree < k.  If some codeword
   disagrees with at most e_max = (m − k)/2 points, this returns it.

   A codeword is accepted only with at least max(k+1, m − e_max)
   supporters.  Such a codeword is unique, so any correct unique decoder
   (Berlekamp–Welch included) returns the same one, and None exactly
   when there is none.  The k+1 floor demands one redundant point:
   k points always fit a degree-(k-1) polynomial, so an exactly-k fit
   carries no evidence, and refusing it turns undetectable corruption
   into an erasure, which the protocol's majority layers absorb. *)
let gao ~k pts inv =
  let m = Array.length pts in
  (* Divided differences: after level j, c.(i) = y[x_(i-j) .. x_i]. *)
  let c = Array.make (m + 1) Zp.zero in
  for i = 0 to m - 1 do
    c.(i) <- snd pts.(i)
  done;
  for j = 1 to m - 1 do
    for i = m - 1 downto j do
      c.(i) <- Zp.mul (Zp.sub c.(i) c.(i - 1)) inv.((i * m) + i - j)
    done
  done;
  let g1 = Array.make (m + 1) Zp.zero in
  g1.(0) <- c.(m - 1);
  for i = m - 2 downto 0 do
    mul_linear g1 (m - 2 - i) (fst pts.(i));
    g1.(0) <- Zp.add g1.(0) c.(i)
  done;
  let g0 = Array.make (m + 1) Zp.zero in
  g0.(0) <- Zp.one;
  for i = 0 to m - 1 do
    mul_linear g0 i (fst pts.(i))
  done;
  (* Partial extended Euclid.  Invariant: r_i = u_i·g0 + v_i·g1; the
     u_i are never needed.  Each step reduces r0 modulo r1 one leading
     term at a time, then swaps the pairs.  Degrees of v stay <= m. *)
  Array.fill c 0 (m + 1) Zp.zero;
  let v1 = Array.make (m + 1) Zp.zero in
  v1.(0) <- Zp.one;
  let r0 = ref g0 and r1 = ref g1 and v0 = ref c and v1 = ref v1 in
  let d0 = ref m and d1 = ref (degree g1 (m - 1)) and dv0 = ref (-1) and dv1 = ref 0 in
  while 2 * !d1 >= m + k do
    let il = Zp.inv !r1.(!d1) in
    while !d0 >= !d1 do
      let s = !d0 - !d1 in
      let q = Zp.mul !r0.(!d0) il in
      sub_shifted !r0 !r1 !d1 q s;
      sub_shifted !v0 !v1 !dv1 q s;
      d0 := degree !r0 (!d0 - 1);
      dv0 := degree !v0 (Stdlib.max !dv0 (!dv1 + s))
    done;
    let r = !r0 and d = !d0 and v = !v0 and dv = !dv0 in
    r0 := !r1;
    d0 := !d1;
    v0 := !v1;
    dv0 := !dv1;
    r1 := r;
    d1 := d;
    v1 := v;
    dv1 := dv
  done;
  (* Exact division g / v, the quotient written over the spent r0. *)
  let g = !r1 and v = !v1 and dv = !dv1 in
  let dq = !d1 - dv in
  if dq >= k then None
  else begin
    let q = !r0 in
    if dq >= 0 then begin
      let il = Zp.inv v.(dv) in
      for i = dq downto 0 do
        let qi = Zp.mul g.(i + dv) il in
        q.(i) <- qi;
        sub_shifted g v dv qi i
      done
    end;
    if degree g (dv - 1) >= 0 then None
    else begin
      let f = P.of_coeffs (Array.sub q 0 (Stdlib.max 0 (dq + 1))) in
      let support = ref 0 in
      for p = 0 to m - 1 do
        let x, y = pts.(p) in
        if Zp.equal (P.eval f x) y then incr support
      done;
      if !support >= Stdlib.max (k + 1) (m - ((m - k) / 2)) then Some f else None
    end
  end

let unique_decode ~threshold pts =
  if Array.length pts < threshold + 2 then None
  else Option.map P.coeffs (gao ~k:(threshold + 1) pts (inverse_table pts))

(* Maximum-likelihood list decoding: gather candidate polynomials from
   every cyclic window of k consecutive points (a window is clean with
   good probability when errors are scattered) plus the unique decode,
   score each candidate by how many points it explains, and accept the
   uniquely best-supported codeword with at least k + 1 supporters.
   This decodes far beyond the half-distance radius when corruption is
   uncoordinated, yet a coordinated wrong codeword must out-support the
   truth to win — impossible while honest pieces hold a majority — and
   an exact tie yields None rather than a guess.

   The accepted codeword is returned as an evaluation closure rather
   than a coefficient vector: every caller only ever evaluates it (at
   zero, or at the holder points). *)
let best_codeword ~threshold pts =
  let m = Array.length pts in
  let k = threshold + 1 in
  if m < k + 1 then None
  else if m > 62 then
    (* Support sets are bitmasks and need m to fit an int: very wide
       deals (not used by the protocol) get the unique decode alone. *)
    Option.map P.eval (gao ~k pts (inverse_table pts))
  else begin
    let e_max = (m - k) / 2 in
    (* Within the classical radius the codeword is unique — accept
       immediately. *)
    let radius_accept = Stdlib.max (k + 1) (m - e_max) in
    let eval_of_subset idx =
      (* Lagrange through the window, in barycentric form: weights with
         one batch inversion up front, then O(k) multiplications per
         evaluation via prefix/suffix hole products (no division). *)
      let sub_xs = Array.map (fun i -> fst pts.(i)) idx in
      let denoms =
        Array.mapi
          (fun a xa ->
            let d = ref Zp.one in
            Array.iteri
              (fun b xb -> if b <> a then d := Zp.mul !d (Zp.sub xa xb))
              sub_xs;
            !d)
          sub_xs
      in
      let inv_denoms = P.batch_inv denoms in
      let cs = Array.mapi (fun a i -> Zp.mul (snd pts.(i)) inv_denoms.(a)) idx in
      let prefix = Array.make (k + 1) Zp.one in
      fun x ->
        for a = 0 to k - 1 do
          prefix.(a + 1) <- Zp.mul prefix.(a) (Zp.sub x sub_xs.(a))
        done;
        let acc = ref Zp.zero in
        let suffix = ref Zp.one in
        for a = k - 1 downto 0 do
          acc := Zp.add !acc (Zp.mul cs.(a) (Zp.mul prefix.(a) !suffix));
          suffix := Zp.mul !suffix (Zp.sub x sub_xs.(a))
        done;
        !acc
    in
    (* The first window, points 0..k-1, through its own evaluator: when
       it is accepted (the common case) that evaluator is the answer and
       no table is built. *)
    let first = eval_of_subset (Array.init k Fun.id) in
    let mask0 = ref 0 and count0 = ref 0 in
    for p = 0 to m - 1 do
      let x, y = pts.(p) in
      if Zp.equal (first x) y then begin
        mask0 := !mask0 lor (1 lsl p);
        incr count0
      end
    done;
    if !count0 >= radius_accept then Some first
    else begin
      (* Candidate subsets: cyclic windows at several strides — each is
         clean (error-free) with decent probability when errors are
         scattered, and different strides decorrelate the windows.  A
         stride works only when its orbit is long enough for k distinct
         indices. *)
      let strides =
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        List.filter (fun s -> s < m && m / gcd s m >= k) [ 1; 3; 7; 11; 13 ]
      in
      let inv = inverse_table pts in
      (* Support masks of codewords already scored.  A window lying
         wholly inside a scored codeword's support interpolates that
         very codeword (k points pin a degree-(k-1) polynomial), and
         re-scoring a codeword never changes the best/second tracking —
         so skip it.  Distinct strides rediscover the same windows
         constantly.  Each scored window adds one mask, and there are at
         most 5·m windows. *)
      let seen = Array.make (5 * m) 0 in
      seen.(0) <- !mask0;
      let nseen = ref 1 in
      (* The two best distinct codewords (a support mask of >= k+1
         points identifies a codeword uniquely). *)
      let bmask = ref !mask0 and bcount = ref !count0 and second = ref 0 in
      let idx = Array.make k 0 and cs = Array.make k Zp.zero in
      let accepted = ref None in
      List.iter
        (fun s ->
          let start = ref 0 in
          while Option.is_none !accepted && !start < m do
            let wmask = ref 0 in
            for j = 0 to k - 1 do
              wmask := !wmask lor (1 lsl ((!start + (j * s)) mod m))
            done;
            let wmask = !wmask in
            let i = ref 0 in
            while !i < !nseen && seen.(!i) lor wmask <> seen.(!i) do
              incr i
            done;
            if !i = !nseen then begin
              (* Barycentric weights c_a = y_a / Π_(b≠a) (x_a − x_b),
                 k² multiplications and no inversion.  A point outside
                 the window is on the window's polynomial when
                 ℓ(x_p)·Σ c_a / (x_p − x_a) = y_p (the first
                 barycentric form, ℓ = Π (X − x_a)), that is when
                 Σ c_a / (x_p − x_a) = y_p·Π 1 / (x_p − x_a): 2k table
                 multiplications.  The window's own points match by
                 construction. *)
              for j = 0 to k - 1 do
                idx.(j) <- (!start + (j * s)) mod m
              done;
              for a = 0 to k - 1 do
                let row = idx.(a) * m in
                let w = ref (snd pts.(idx.(a))) in
                for b = 0 to k - 1 do
                  if b <> a then w := Zp.mul !w inv.(row + idx.(b))
                done;
                cs.(a) <- !w
              done;
              let mask = ref wmask and count = ref k in
              for p = 0 to m - 1 do
                if wmask land (1 lsl p) = 0 then begin
                  let row = p * m in
                  let sum = ref Zp.zero and scaled = ref (snd pts.(p)) in
                  for a = 0 to k - 1 do
                    let d = inv.(row + idx.(a)) in
                    sum := Zp.add !sum (Zp.mul cs.(a) d);
                    scaled := Zp.mul !scaled d
                  done;
                  if Zp.equal !sum !scaled then begin
                    mask := !mask lor (1 lsl p);
                    incr count
                  end
                end
              done;
              let mask = !mask and count = !count in
              if count >= radius_accept then accepted := Some (s, !start)
              else begin
                seen.(!nseen) <- mask;
                incr nseen;
                if mask <> !bmask then begin
                  if count > !bcount then begin
                    if !bcount > !second then second := !bcount;
                    bmask := mask;
                    bcount := count
                  end
                  else if count > !second then second := count
                end
              end
            end;
            incr start
          done)
        strides;
      match !accepted with
      | Some (s, start) ->
        Some (eval_of_subset (Array.init k (fun j -> (start + (j * s)) mod m)))
      | None ->
        (* No window reached the radius, so a codeword the unique
           decoder finds (support >= radius_accept) out-supports every
           window's; failing that, the best window wins unless tied. *)
        (match gao ~k pts inv with
         | Some f -> Some (P.eval f)
         | None ->
           if !bcount >= k + 1 && !bcount > !second then begin
             (* Rebuild the best window's codeword from its support. *)
             let pts_of_mask =
               List.filteri (fun i _ -> !bmask land (1 lsl i) <> 0)
                 (Array.to_list pts)
             in
             let chosen = List.filteri (fun i _ -> i < k) pts_of_mask in
             Some (P.evaluator chosen)
           end
           else None)
    end
  end

let reconstruct_robust ~threshold shares =
  let shares = dedup shares in
  let pts = Array.of_list (List.map (fun s -> (point s.index, s.value)) shares) in
  Option.map (fun eval -> eval Zp.zero) (best_codeword ~threshold pts)

let deal_vector rng ~threshold ~holders words =
  let per_word = Array.map (fun w -> deal rng ~threshold ~holders w) words in
  (* Transpose: per_word.(w).(h) -> per_holder.(h).(w). *)
  Array.init holders (fun h -> Array.map (fun shares -> shares.(h)) per_word)

let deal_vector_at rng ~threshold ~xs words =
  let per_word = Array.map (fun w -> deal_at rng ~threshold ~xs w) words in
  Array.init (Array.length xs) (fun h ->
      Array.map (fun shares -> shares.(h).value) per_word)

(* Lagrange coefficients at zero for a point set given as x-indices,
   with the k divisions collapsed into one batch inversion.  These
   weights are computed once per verification subset and reused for
   every word of the vector. *)
let weights_at_zero xs =
  let nums = Array.make (Array.length xs) Zp.one in
  let denoms = Array.make (Array.length xs) Zp.one in
  Array.iteri
    (fun i xi ->
      let pi = point xi in
      let num = ref Zp.one and denom = ref Zp.one in
      Array.iteri
        (fun j xj ->
          if i <> j then begin
            let pj = point xj in
            num := Zp.mul !num pj;
            denom := Zp.mul !denom (Zp.sub pj pi)
          end)
        xs;
      nums.(i) <- !num;
      denoms.(i) <- !denom)
    xs;
  let inv_denoms = P.batch_inv denoms in
  Array.mapi (fun i num -> Zp.mul num inv_denoms.(i)) nums

let reconstruct_vectors ~threshold holders =
  let holders = dedup_by fst holders in
  let m = List.length holders in
  let k = threshold + 1 in
  (* m = k would be vacuously consistent (k points fit any
     degree-(k-1) polynomial); demand one redundant holder. *)
  if m < k + 1 then None
  else begin
    let words =
      match holders with (_, v) :: _ -> Array.length v | [] -> 0
    in
    if List.exists (fun (_, v) -> Array.length v <> words) holders then
      invalid_arg "Shamir.reconstruct_vectors: ragged vectors";
    if words = 0 then Some [||]
    else begin
      let xs = Array.of_list (List.map fst holders) in
      let vs = Array.of_list (List.map snd holders) in
      let probe_pts = Array.map2 (fun x v -> (point x, v.(0))) xs vs in
      (* Identify the honest holders once, on the probe word: fast path
         interpolates through the first k and hopes for unanimity; the
         slow path list-decodes the probe ([best_codeword]). *)
      let honest =
        let first_k = Array.to_list (Array.sub probe_pts 0 k) in
        (* One evaluator for the probe subset, shared across all m
           support checks: O(k) per point instead of a fresh O(k²)
           Lagrange sum with per-term divisions. *)
        let eval_first_k = P.evaluator first_k in
        let unanimous =
          Array.for_all (fun (x, y) -> Zp.equal (eval_first_k x) y) probe_pts
        in
        if unanimous then Some (Array.init m (fun i -> i))
        else
          match best_codeword ~threshold probe_pts with
          | None -> None
          | Some eval ->
            let fit = ref [] in
            Array.iteri
              (fun i (x, y) -> if Zp.equal (eval x) y then fit := i :: !fit)
              probe_pts;
            Some (Array.of_list (List.rev !fit))
      in
      match honest with
      | None -> None
      | Some fit when Array.length fit < k -> None
      | Some fit ->
        (* Two verification subsets: a holder lying only on later words
           is caught when the subsets disagree, triggering a per-word
           list decode. *)
        let nfit = Array.length fit in
        let sub_a = Array.sub fit 0 k in
        let sub_b = Array.sub fit (nfit - k) k in
        let xs_of sub = Array.map (fun i -> xs.(i)) sub in
        let same_subsets = nfit = k in
        let w_a = weights_at_zero (xs_of sub_a) in
        (* The second subset only matters when it differs from the
           first; its weights go unused otherwise. *)
        let w_b = if same_subsets then w_a else weights_at_zero (xs_of sub_b) in
        (* Weighted sum straight out of the holder vectors — no per-word
           value array. *)
        let dot_sub weights sub w =
          let acc = ref Zp.zero in
          for i = 0 to k - 1 do
            acc := Zp.add !acc (Zp.mul weights.(i) vs.(sub.(i)).(w))
          done;
          !acc
        in
        let out = Array.make words Zp.zero in
        let ok = ref true in
        for w = 0 to words - 1 do
          if !ok then begin
            let va = dot_sub w_a sub_a w in
            let agreed = same_subsets || Zp.equal va (dot_sub w_b sub_b w) in
            if agreed then out.(w) <- va
            else begin
              let pts = Array.map2 (fun x v -> (point x, v.(w))) xs vs in
              match best_codeword ~threshold pts with
              | Some eval -> out.(w) <- eval Zp.zero
              | None -> ok := false
            end
          end
        done;
        if !ok then Some out else None
    end
  end

(* Detection hook for graceful degradation: callers that can retry or
   report (Ks_core.Comm, the fault experiments) count failed decodes
   where they happen instead of silently losing them. *)
let reconstruct_vectors ?failures ~threshold holders =
  match reconstruct_vectors ~threshold holders with
  | Some _ as s -> s
  | None ->
    (match failures with Some r -> incr r | None -> ());
    None

module Make (_ : sig end) = struct
  type nonrec share = share = { index : int; value : Zp.t }

  let deal = deal
  let deal_vector_at = deal_vector_at
  let reconstruct_robust = reconstruct_robust
  let reconstruct_vectors = reconstruct_vectors
end
