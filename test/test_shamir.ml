module Zp = Ks_field.Zp
module Sh = Ks_shamir.Shamir
module Add = Ks_shamir.Additive
module P = Ks_field.Poly
module Prng = Ks_stdx.Prng

let rng () = Prng.create 20260706L

let test_roundtrip () =
  let rng = rng () in
  for _ = 1 to 50 do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    match Sh.reconstruct ~threshold:5 (Array.to_list shares) with
    | Some v -> Alcotest.(check int) "recovers" (Zp.to_int secret) (Zp.to_int v)
    | None -> Alcotest.fail "reconstruction failed"
  done

let test_any_subset_reconstructs () =
  let rng = rng () in
  let secret = Zp.of_int 123456 in
  let shares = Sh.deal rng ~threshold:4 ~holders:12 secret in
  for _ = 1 to 30 do
    let idx = Prng.sample_without_replacement rng ~n:12 ~k:5 in
    let subset = Array.to_list (Array.map (fun i -> shares.(i)) idx) in
    match Sh.reconstruct ~threshold:4 subset with
    | Some v -> Alcotest.(check int) "any 5-subset" 123456 (Zp.to_int v)
    | None -> Alcotest.fail "subset reconstruction failed"
  done

let test_too_few_shares () =
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:4 ~holders:12 (Zp.of_int 9) in
  let subset = Array.to_list (Array.sub shares 0 4) in
  Alcotest.(check bool) "threshold shares insufficient" true
    (Sh.reconstruct ~threshold:4 subset = None)

let test_duplicate_shares_ignored () =
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:2 ~holders:6 (Zp.of_int 77) in
  (* Three distinct + duplicates of one: must reconstruct from distinct. *)
  let subset = [ shares.(0); shares.(0); shares.(1); shares.(1); shares.(2) ] in
  match Sh.reconstruct ~threshold:2 subset with
  | Some v -> Alcotest.(check int) "dedup" 77 (Zp.to_int v)
  | None -> Alcotest.fail "should reconstruct"

let test_hiding_statistical () =
  (* With t shares, the view distribution is independent of the secret:
     compare the first share's low bits across two secrets. *)
  let rng = rng () in
  let buckets = 16 in
  let hist secret =
    let h = Array.make buckets 0 in
    for _ = 1 to 4000 do
      let shares = Sh.deal rng ~threshold:3 ~holders:8 secret in
      let v = Zp.to_int shares.(0).Sh.value mod buckets in
      h.(v) <- h.(v) + 1
    done;
    h
  in
  let h0 = hist Zp.zero and h1 = hist (Zp.of_int 424242) in
  let tv = ref 0.0 in
  for i = 0 to buckets - 1 do
    tv := !tv +. Float.abs (float_of_int (h0.(i) - h1.(i)))
  done;
  let tv = !tv /. (2.0 *. 4000.0) in
  Alcotest.(check bool) (Printf.sprintf "TV small (%.3f)" tv) true (tv < 0.08)

let test_deal_validation () =
  let rng = rng () in
  Alcotest.check_raises "holders <= threshold"
    (Invalid_argument "Shamir.deal: holders <= threshold") (fun () ->
      ignore (Sh.deal rng ~threshold:5 ~holders:5 Zp.zero));
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Shamir.deal: negative threshold") (fun () ->
      ignore (Sh.deal rng ~threshold:(-1) ~holders:5 Zp.zero))

let test_deal_at_positions () =
  let rng = rng () in
  let xs = [| 9; 3; 25; 14; 7; 30 |] in
  let shares = Sh.deal_at rng ~threshold:2 ~xs (Zp.of_int 55) in
  Array.iteri
    (fun i s -> Alcotest.(check int) "index preserved" xs.(i) s.Sh.index)
    shares;
  match Sh.reconstruct ~threshold:2 (Array.to_list shares) with
  | Some v -> Alcotest.(check int) "reconstructs from positions" 55 (Zp.to_int v)
  | None -> Alcotest.fail "failed"

let corrupt_some rng shares ~count =
  let shares = Array.copy shares in
  let idx = Prng.sample_without_replacement rng ~n:(Array.length shares) ~k:count in
  Array.iter
    (fun i -> shares.(i) <- { shares.(i) with Sh.value = Zp.random rng })
    idx;
  shares

let test_robust_corrects_errors () =
  let rng = rng () in
  for _ = 1 to 30 do
    let secret = Zp.random rng in
    (* holders 16, threshold 5: classical radius (16-6)/2 = 5. *)
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:4 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v -> Alcotest.(check int) "corrected" (Zp.to_int secret) (Zp.to_int v)
    | None -> Alcotest.fail "robust reconstruction failed"
  done

let test_robust_beyond_radius_list_decoding () =
  (* 6 random errors among 16 with k = 6 exceed the BW radius, but random
     errors rarely form a competing codeword, so list decoding wins. *)
  let rng = rng () in
  let ok = ref 0 in
  let trials = 30 in
  for _ = 1 to trials do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:6 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v when Zp.equal v secret -> incr ok
    | Some _ -> Alcotest.fail "wrong value accepted"
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "decodes beyond radius (%d/%d)" !ok trials)
    true
    (!ok >= trials * 2 / 3)

let test_robust_never_wrong_under_majority_garbage () =
  (* With 8 of 16 shares corrupted the truth is not recoverable; the
     decoder must answer None or (exceptionally) the truth — never a
     confidently wrong value. *)
  let rng = rng () in
  for _ = 1 to 20 do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:8 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v -> Alcotest.(check int) "only truth accepted" (Zp.to_int secret) (Zp.to_int v)
    | None -> ()
  done

let test_robust_exact_threshold_rejected () =
  (* Exactly t+1 shares carry no redundancy: robust reconstruction must
     refuse rather than trust them blindly. *)
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:5 ~holders:16 (Zp.of_int 8) in
  let subset = Array.to_list (Array.sub shares 0 6) in
  Alcotest.(check bool) "no redundancy -> None" true
    (Sh.reconstruct_robust ~threshold:5 subset = None)

let test_vector_roundtrip () =
  let rng = rng () in
  let words = Array.init 20 (fun i -> Zp.of_int (i * i)) in
  let per_holder = Sh.deal_vector rng ~threshold:4 ~holders:12 words in
  (* One value vector per holder, as Comm's decoder receives them. *)
  let holders =
    List.init 12 (fun h -> (h, Array.map (fun s -> s.Sh.value) per_holder.(h)))
  in
  match Sh.reconstruct_vectors ~threshold:4 holders with
  | Some out ->
    Array.iteri
      (fun i v -> Alcotest.(check int) "word" (i * i) (Zp.to_int v))
      out
  | None -> Alcotest.fail "vector reconstruction failed"

let test_reconstruct_vectors_fast () =
  let rng = rng () in
  for trial = 1 to 20 do
    let words = Array.init 8 (fun i -> Zp.of_int ((trial * 100) + i)) in
    let xs = Array.init 14 (fun i -> i * 2) in
    let per_holder = Sh.deal_vector_at rng ~threshold:4 ~xs words in
    (* Corrupt three whole holders. *)
    let holders =
      List.init 14 (fun h ->
          let v =
            if h < 3 then Array.map (fun _ -> Zp.random rng) per_holder.(h)
            else per_holder.(h)
          in
          (xs.(h), v))
    in
    match Sh.reconstruct_vectors ~threshold:4 holders with
    | Some out ->
      Array.iteri
        (fun i v -> Alcotest.(check int) "word" ((trial * 100) + i) (Zp.to_int v))
        out
    | None -> Alcotest.fail "vector decode failed"
  done

let test_reconstruct_vectors_word_targeted_lie () =
  (* A holder honest on the probe word but lying on a later word must not
     silently poison that word. *)
  let rng = rng () in
  let words = Array.init 6 (fun i -> Zp.of_int (i + 1)) in
  let xs = Array.init 12 (fun i -> i) in
  let per_holder = Sh.deal_vector_at rng ~threshold:3 ~xs words in
  per_holder.(0).(4) <- Zp.random rng;
  let holders = List.init 12 (fun h -> (h, per_holder.(h))) in
  match Sh.reconstruct_vectors ~threshold:3 holders with
  | Some out ->
    Array.iteri (fun i v -> Alcotest.(check int) "word survives lie" (i + 1) (Zp.to_int v)) out
  | None -> Alcotest.fail "should decode"

let test_additive () =
  let rng = rng () in
  for _ = 1 to 20 do
    let secret = Zp.random rng in
    let shares = Add.deal rng ~holders:7 secret in
    Alcotest.(check int) "sum reconstructs" (Zp.to_int secret)
      (Zp.to_int (Add.reconstruct shares))
  done;
  Alcotest.check_raises "zero holders"
    (Invalid_argument "Additive.deal: need at least one holder") (fun () ->
      ignore (Add.deal rng ~holders:0 Zp.zero))

let prop_roundtrip =
  QCheck.Test.make ~name:"deal/reconstruct roundtrip (random t, holders)" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 1000) + b)) in
      let threshold = 1 + (a mod 6) in
      let holders = threshold + 2 + (b mod 8) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      match Sh.reconstruct ~threshold (Array.to_list shares) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_robust_radius =
  QCheck.Test.make ~name:"robust corrects within radius" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 7919) + b + 1)) in
      let threshold = 2 + (a mod 4) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let errors = Stdlib.min radius (holders / 4) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_subset_threshold_boundary =
  (* Any subset strictly above the threshold reconstructs; any subset at
     or below it yields None (information-theoretic hiding boundary). *)
  QCheck.Test.make ~name:"subset size vs threshold boundary" ~count:100
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 65537) + (b * 257) + c + 1)) in
      let threshold = 1 + (a mod 5) in
      let holders = threshold + 2 + (b mod 8) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let k = 1 + (c mod holders) in
      let idx = Prng.sample_without_replacement rng ~n:holders ~k in
      let subset = Array.to_list (Array.map (fun i -> shares.(i)) idx) in
      match Sh.reconstruct ~threshold subset with
      | Some v -> k > threshold && Zp.equal v secret
      | None -> k <= threshold)

let prop_robust_at_exact_radius =
  (* Error patterns of every weight up to and including the classical
     radius ⌊(holders − threshold − 1) / 2⌋ must decode to the secret. *)
  QCheck.Test.make ~name:"robust corrects at the exact radius" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 7907) + (b * 131) + c + 1)) in
      let threshold = 2 + (a mod 4) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let errors = c mod (radius + 1) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_robust_beyond_radius_fails_cleanly =
  (* Past the radius the decoder may recover (list decoding) or give up,
     but it must never raise and never return a wrong secret for random
     (non-colluding) error patterns at these sizes. *)
  QCheck.Test.make ~name:"robust beyond radius: no crash, no wrong secret" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 104729) + (b * 433) + c + 1)) in
      let threshold = 2 + (a mod 3) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let max_errors = holders - threshold - 1 in
      let errors = Stdlib.min max_errors (radius + 1 + (c mod 3)) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Equivalence against the pre-optimization reference decoder
   (test/decode_oracle.ml).  The optimized kernels (support-mask skips,
   window scoring on a per-call inverse table, Gao's decoder in place of
   Berlekamp–Welch) must be bit-for-bit behaviour-preserving, including
   the None-on-tie refusal. *)

let equal_opt eq a b =
  match (a, b) with
  | Some x, Some y -> eq x y
  | None, None -> true
  | _ -> false

(* A decode input shaped like the protocol's: which indices hold shares,
   in what order, the threshold, and which shares lie.  Shapes:
   - contiguous indices 0..holders-1;
   - shuffled, non-contiguous indices in 0..62 (arrival order, uplink
     positions);
   - m = 16 shares at threshold 5 (k = 6), the tournament's common shape;
   - m > 62 shares, where support sets no longer fit a bitmask.
   Liars either send garbage or move onto a coordinated second codeword
   (the dealer polynomial plus one, a [Flip]-like lie), which exercises
   the best/second tracking and the refusal on ties.  Liar counts sweep
   well past the decodable radius. *)
type case = { threshold : int; xs : int array; liars : int array; coordinated : bool }

let gen_case rng =
  let small () =
    let threshold = 1 + Prng.int rng 5 in
    (threshold, threshold + 2 + Prng.int rng 12)
  in
  let threshold, holders, xs_from =
    match Prng.int rng 8 with
    | 0 ->
      let threshold, holders = small () in
      (threshold, holders, None)
    | 1 | 2 ->
      let threshold, holders = small () in
      (threshold, holders, Some 63)
    | 3 | 4 | 5 | 6 -> (5, 16, Some 63)
    | _ -> (Prng.choose rng [| 5; 20; 31 |], 63 + Prng.int rng 6, Some 100)
  in
  let xs =
    match xs_from with
    | None -> Array.init holders Fun.id
    | Some n -> Prng.sample_without_replacement rng ~n ~k:holders
  in
  let coordinated = Prng.bool rng in
  let max_liars = if coordinated then holders / 2 else holders - threshold - 1 in
  let liars =
    Prng.sample_without_replacement rng ~n:holders ~k:(Prng.int rng (max_liars + 1))
  in
  { threshold; xs; liars; coordinated }

let case_shares rng case =
  let shares = Sh.deal_at rng ~threshold:case.threshold ~xs:case.xs (Zp.random rng) in
  Array.iter
    (fun i ->
      let v = shares.(i).Sh.value in
      let lie = if case.coordinated then Zp.add v Zp.one else Zp.random rng in
      shares.(i) <- { (shares.(i)) with Sh.value = lie })
    case.liars;
  Array.to_list shares

let prop_robust_equiv_oracle_zp =
  (* The optimized and reference decoders must agree on every verdict —
     recovered value, wrong-but-identical value, or None. *)
  QCheck.Test.make ~name:"optimized robust decode == reference oracle (Z_p)"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 92821) + (b * 613) + 1)) in
      let case = gen_case rng in
      let shares = case_shares rng case in
      equal_opt Zp.equal
        (Sh.reconstruct_robust ~threshold:case.threshold shares)
        (Decode_oracle.reconstruct_robust ~threshold:case.threshold shares))

let prop_gao_equiv_bw =
  (* Gao's decoder returns the oracle's Berlekamp–Welch polynomial, or
     None where it does, inside and beyond the radius. *)
  let same a b = Array.length a = Array.length b && Array.for_all2 Zp.equal a b in
  QCheck.Test.make ~name:"Gao unique decode == reference Berlekamp-Welch (Z_p)"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 15485863) + (b * 1009) + 1)) in
      let case = gen_case rng in
      let pts =
        Array.of_list
          (List.map
             (fun s -> (Zp.of_int (s.Sh.index + 1), s.Sh.value))
             (case_shares rng case))
      in
      let threshold = case.threshold in
      equal_opt same
        (Sh.unique_decode ~threshold pts)
        (Option.map P.coeffs (Decode_oracle.berlekamp_welch_poly ~threshold pts)))

let prop_lagrange_eval_equiv_oracle =
  QCheck.Test.make ~name:"Poly.lagrange_eval == reference oracle (Z_p)"
    ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 31337) + b + 1)) in
      let k = 1 + (a mod 10) in
      let pts = List.init k (fun i -> (Zp.of_int (i + 1), Zp.random rng)) in
      let x = Zp.random rng in
      Zp.equal (P.lagrange_eval pts x) (Decode_oracle.lagrange_eval pts x))

let test_tie_yields_none_both_decoders () =
  (* threshold 1 (k = 2), m = 6: three shares on the zero line, three on
     the line y = x.  Each line explains exactly 3 points (below
     radius_accept = 4), the supports are disjoint, and no mixed pair
     beats them: an exact best/second tie.  Both decoders must refuse
     with None rather than guess a winner. *)
  let shares =
    List.init 6 (fun i ->
        { Sh.index = i; value = (if i < 3 then Zp.zero else Zp.of_int (i + 1)) })
  in
  Alcotest.(check bool) "optimized ties to None" true
    (Sh.reconstruct_robust ~threshold:1 shares = None);
  Alcotest.(check bool) "oracle ties to None" true
    (Decode_oracle.reconstruct_robust ~threshold:1 shares = None)

let () =
  Alcotest.run "shamir"
    [
      ( "basic",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "any subset" `Quick test_any_subset_reconstructs;
          Alcotest.test_case "too few" `Quick test_too_few_shares;
          Alcotest.test_case "duplicates" `Quick test_duplicate_shares_ignored;
          Alcotest.test_case "hiding" `Quick test_hiding_statistical;
          Alcotest.test_case "validation" `Quick test_deal_validation;
          Alcotest.test_case "deal at positions" `Quick test_deal_at_positions;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "robust",
        [
          Alcotest.test_case "corrects errors" `Quick test_robust_corrects_errors;
          Alcotest.test_case "list decoding beyond radius" `Quick
            test_robust_beyond_radius_list_decoding;
          Alcotest.test_case "never wrong at 50% garbage" `Quick
            test_robust_never_wrong_under_majority_garbage;
          Alcotest.test_case "exact threshold rejected" `Quick
            test_robust_exact_threshold_rejected;
          QCheck_alcotest.to_alcotest prop_robust_radius;
          QCheck_alcotest.to_alcotest prop_subset_threshold_boundary;
          QCheck_alcotest.to_alcotest prop_robust_at_exact_radius;
          QCheck_alcotest.to_alcotest prop_robust_beyond_radius_fails_cleanly;
        ] );
      ( "vector",
        [
          Alcotest.test_case "roundtrip" `Quick test_vector_roundtrip;
          Alcotest.test_case "fast decode with bad holders" `Quick
            test_reconstruct_vectors_fast;
          Alcotest.test_case "word-targeted lie" `Quick
            test_reconstruct_vectors_word_targeted_lie;
        ] );
      ("additive", [ Alcotest.test_case "roundtrip" `Quick test_additive ]);
      ( "oracle equivalence",
        [
          Alcotest.test_case "tie yields None (both decoders)" `Quick
            test_tie_yields_none_both_decoders;
          QCheck_alcotest.to_alcotest prop_robust_equiv_oracle_zp;
          QCheck_alcotest.to_alcotest prop_gao_equiv_bw;
          QCheck_alcotest.to_alcotest prop_lagrange_eval_equiv_oracle;
        ] );
    ]
