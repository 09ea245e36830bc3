module Zp = Ks_field.Zp
module Prng = Ks_stdx.Prng

(* Field axioms as qcheck properties. *)
let elem =
  QCheck.map (fun seed -> Zp.random (Prng.create (Int64.of_int seed))) QCheck.small_nat

let nonzero =
  QCheck.map
    (fun seed -> Zp.random_nonzero (Prng.create (Int64.of_int seed)))
    QCheck.small_nat

let axioms =
  let t name = "Zp: " ^ name in
  [
    QCheck.Test.make ~name:(t "add commutative") ~count:200 (QCheck.pair elem elem)
      (fun (a, b) -> Zp.equal (Zp.add a b) (Zp.add b a));
    QCheck.Test.make ~name:(t "add associative") ~count:200
      (QCheck.triple elem elem elem)
      (fun (a, b, c) -> Zp.equal (Zp.add (Zp.add a b) c) (Zp.add a (Zp.add b c)));
    QCheck.Test.make ~name:(t "mul commutative") ~count:200 (QCheck.pair elem elem)
      (fun (a, b) -> Zp.equal (Zp.mul a b) (Zp.mul b a));
    QCheck.Test.make ~name:(t "mul associative") ~count:200
      (QCheck.triple elem elem elem)
      (fun (a, b, c) -> Zp.equal (Zp.mul (Zp.mul a b) c) (Zp.mul a (Zp.mul b c)));
    QCheck.Test.make ~name:(t "distributivity") ~count:200
      (QCheck.triple elem elem elem)
      (fun (a, b, c) ->
        Zp.equal (Zp.mul a (Zp.add b c)) (Zp.add (Zp.mul a b) (Zp.mul a c)));
    QCheck.Test.make ~name:(t "additive inverse") ~count:200 elem (fun a ->
        Zp.equal (Zp.add a (Zp.neg a)) Zp.zero);
    QCheck.Test.make ~name:(t "multiplicative inverse") ~count:200 nonzero (fun a ->
        Zp.equal (Zp.mul a (Zp.inv a)) Zp.one);
    QCheck.Test.make ~name:(t "sub = add neg") ~count:200 (QCheck.pair elem elem)
      (fun (a, b) -> Zp.equal (Zp.sub a b) (Zp.add a (Zp.neg b)));
    QCheck.Test.make ~name:(t "pow matches repeated mul") ~count:100
      (QCheck.pair elem (QCheck.int_bound 12))
      (fun (a, e) ->
        let rec go acc i = if i = 0 then acc else go (Zp.mul acc a) (i - 1) in
        Zp.equal (Zp.pow a e) (go Zp.one e));
    QCheck.Test.make ~name:(t "of_int/to_int roundtrip") ~count:200 elem (fun a ->
        Zp.equal a (Zp.of_int (Zp.to_int a)));
  ]

let test_zp_edge () =
  Alcotest.(check int) "p-1 + 1 = 0" 0 (Zp.to_int (Zp.add (Zp.of_int (Zp.p - 1)) Zp.one));
  Alcotest.(check int) "neg zero" 0 (Zp.to_int (Zp.neg Zp.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Zp.inv Zp.zero));
  (* Mersenne-reduction edges: operands near p whose raw product exercises
     both folds, pinned against slow bona-fide modular arithmetic. *)
  List.iter
    (fun (a, b) ->
      let slow = a * b mod Zp.p in
      Alcotest.(check int)
        (Printf.sprintf "mul %d*%d" a b)
        slow
        (Zp.to_int (Zp.mul (Zp.of_int a) (Zp.of_int b))))
    [
      (Zp.p - 1, Zp.p - 1);
      (Zp.p - 1, 1);
      (Zp.p - 2, Zp.p - 2);
      (1 lsl 30, 1 lsl 30);
      ((1 lsl 30) + 12345, (1 lsl 30) - 54321);
      (0, Zp.p - 1);
    ]

(* of_int must reject anything outside [0, p): silent reduction would let
   distinct wire words alias the same field element. *)
let test_of_int_boundaries () =
  Alcotest.(check int) "Zp order-1 accepted" (Zp.p - 1) (Zp.to_int (Zp.of_int (Zp.p - 1)));
  Alcotest.check_raises "Zp order rejected" (Invalid_argument "Zp.of_int: out of range")
    (fun () -> ignore (Zp.of_int Zp.p));
  Alcotest.check_raises "Zp order+1 rejected" (Invalid_argument "Zp.of_int: out of range")
    (fun () -> ignore (Zp.of_int (Zp.p + 1)));
  Alcotest.check_raises "Zp negative rejected" (Invalid_argument "Zp.of_int: negative")
    (fun () -> ignore (Zp.of_int (-1)))

module P = Ks_field.Poly

let test_poly_eval () =
  (* 3 + 2x + x^2 at x = 5 -> 38 *)
  let p = P.of_coeffs [| Zp.of_int 3; Zp.of_int 2; Zp.of_int 1 |] in
  Alcotest.(check int) "eval" 38 (Zp.to_int (P.eval p (Zp.of_int 5)));
  Alcotest.(check int) "degree" 2 (P.degree p);
  Alcotest.(check int) "zero degree" (-1) (P.degree P.zero)

let test_poly_normalise () =
  let p = P.of_coeffs [| Zp.of_int 1; Zp.zero; Zp.zero |] in
  Alcotest.(check int) "trailing zeros dropped" 0 (P.degree p)

let test_poly_divmod () =
  let rng = Prng.create 9L in
  for _ = 1 to 50 do
    let a = P.random rng ~degree:7 ~const:(Zp.random rng) in
    let b = P.random rng ~degree:3 ~const:(Zp.random rng) in
    let q, r = P.divmod a b in
    Alcotest.(check bool) "a = qb + r" true (P.equal a (P.add (P.mul q b) r));
    Alcotest.(check bool) "deg r < deg b" true (P.degree r < Stdlib.max 1 (P.degree b))
  done

let test_poly_interpolate_roundtrip () =
  let rng = Prng.create 11L in
  for _ = 1 to 30 do
    let p = P.random rng ~degree:4 ~const:(Zp.random rng) in
    let pts = List.init 5 (fun i -> (Zp.of_int (i + 1), P.eval p (Zp.of_int (i + 1)))) in
    let q = P.interpolate pts in
    Alcotest.(check bool) "interpolation recovers" true (P.equal p q);
    Alcotest.(check int) "lagrange_eval agrees" (Zp.to_int (P.eval p (Zp.of_int 77)))
      (Zp.to_int (P.lagrange_eval pts (Zp.of_int 77)))
  done

let test_poly_evaluator () =
  let rng = Prng.create 13L in
  for _ = 1 to 30 do
    let p = P.random rng ~degree:5 ~const:(Zp.random rng) in
    let pts = List.init 6 (fun i -> (Zp.of_int (i + 1), P.eval p (Zp.of_int (i + 1)))) in
    let ev = P.evaluator pts in
    (* At the nodes the hole products vanish termwise: exact y_i, no 0/0
       special case. *)
    List.iter
      (fun (x, y) -> Alcotest.(check int) "node" (Zp.to_int y) (Zp.to_int (ev x)))
      pts;
    for x = 0 to 40 do
      let x = Zp.of_int x in
      Alcotest.(check int) "off-node" (Zp.to_int (P.eval p x)) (Zp.to_int (ev x))
    done
  done;
  Alcotest.check_raises "duplicate x"
    (Invalid_argument "Poly.interpolate: duplicate abscissa") (fun () ->
      ignore (P.evaluator [ (Zp.one, Zp.one); (Zp.one, Zp.zero) ] : Zp.t -> Zp.t))

let test_batch_inv () =
  let rng = Prng.create 14L in
  for _ = 1 to 20 do
    let a = Array.init 9 (fun _ -> Zp.random_nonzero rng) in
    let inv = P.batch_inv a in
    Array.iteri
      (fun i x -> Alcotest.(check int) "x * x^-1" 1 (Zp.to_int (Zp.mul x inv.(i))))
      a
  done;
  Alcotest.(check int) "empty" 0 (Array.length (P.batch_inv [||]));
  Alcotest.check_raises "zero entry" Division_by_zero (fun () ->
      ignore (P.batch_inv [| Zp.one; Zp.zero |]))

let test_poly_interpolate_errors () =
  Alcotest.check_raises "duplicate x" (Invalid_argument "Poly.interpolate: duplicate abscissa")
    (fun () -> ignore (P.interpolate [ (Zp.one, Zp.one); (Zp.one, Zp.zero) ]));
  Alcotest.check_raises "empty" (Invalid_argument "Poly.interpolate: no points")
    (fun () -> ignore (P.interpolate []))

module L = Linalg

let test_linalg_solve () =
  (* x + 2y = 5; 3x + 4y = 11 -> x = 1, y = 2 *)
  let a = [| [| Zp.of_int 1; Zp.of_int 2 |]; [| Zp.of_int 3; Zp.of_int 4 |] |] in
  let b = [| Zp.of_int 5; Zp.of_int 11 |] in
  match L.solve a b with
  | Some x ->
    Alcotest.(check int) "x" 1 (Zp.to_int x.(0));
    Alcotest.(check int) "y" 2 (Zp.to_int x.(1))
  | None -> Alcotest.fail "no solution found"

let test_linalg_inconsistent () =
  let a = [| [| Zp.one; Zp.one |]; [| Zp.one; Zp.one |] |] in
  let b = [| Zp.of_int 1; Zp.of_int 2 |] in
  Alcotest.(check bool) "inconsistent detected" true (L.solve a b = None)

let test_linalg_underdetermined () =
  let a = [| [| Zp.one; Zp.one |] |] in
  let b = [| Zp.of_int 5 |] in
  match L.solve a b with
  | Some x ->
    Alcotest.(check int) "solution satisfies" 5
      (Zp.to_int (Zp.add x.(0) x.(1)))
  | None -> Alcotest.fail "should be solvable"

let test_linalg_rank () =
  let a = [| [| Zp.one; Zp.of_int 2 |]; [| Zp.of_int 2; Zp.of_int 4 |] |] in
  Alcotest.(check int) "rank deficient" 1 (L.rank a);
  let b = [| [| Zp.one; Zp.zero |]; [| Zp.zero; Zp.one |] |] in
  Alcotest.(check int) "full rank" 2 (L.rank b)

let prop_linalg_random_solve =
  QCheck.Test.make ~name:"solve recovers planted solution" ~count:100 QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 1)) in
      let n = 1 + (seed mod 6) in
      let x = Array.init n (fun _ -> Zp.random rng) in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> Zp.random rng)) in
      let b =
        Array.map
          (fun row ->
            let acc = ref Zp.zero in
            Array.iteri (fun j v -> acc := Zp.add !acc (Zp.mul v x.(j))) row;
            !acc)
          a
      in
      match L.solve a b with
      | None -> false (* random square systems are a.s. nonsingular *)
      | Some y ->
        (* Any solution must satisfy the system. *)
        Array.for_all2
          (fun row bi ->
            let acc = ref Zp.zero in
            Array.iteri (fun j v -> acc := Zp.add !acc (Zp.mul v y.(j))) row;
            Zp.equal !acc bi)
          a b)

let () =
  Alcotest.run "field"
    [
      ("zp-axioms", List.map (fun t -> QCheck_alcotest.to_alcotest t) axioms);
      ( "edges",
        [
          Alcotest.test_case "zp edges" `Quick test_zp_edge;
          Alcotest.test_case "of_int boundaries" `Quick test_of_int_boundaries;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "normalise" `Quick test_poly_normalise;
          Alcotest.test_case "divmod" `Quick test_poly_divmod;
          Alcotest.test_case "interpolate roundtrip" `Quick test_poly_interpolate_roundtrip;
          Alcotest.test_case "interpolate errors" `Quick test_poly_interpolate_errors;
          Alcotest.test_case "evaluator" `Quick test_poly_evaluator;
          Alcotest.test_case "batch_inv" `Quick test_batch_inv;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve 2x2" `Quick test_linalg_solve;
          Alcotest.test_case "inconsistent" `Quick test_linalg_inconsistent;
          Alcotest.test_case "underdetermined" `Quick test_linalg_underdetermined;
          Alcotest.test_case "rank" `Quick test_linalg_rank;
          QCheck_alcotest.to_alcotest prop_linalg_random_solve;
        ] );
    ]
