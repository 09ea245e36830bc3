module Prng = Ks_stdx.Prng
module Stats = Ks_stdx.Stats
module Intmath = Ks_stdx.Intmath
module Table = Ks_stdx.Table

let check_float = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let root = Prng.create 7L in
  let a = Prng.split root and b = Prng.split root in
  Alcotest.(check bool) "different streams" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_at_stable () =
  let root = Prng.create 7L in
  let a = Prng.split_at root 3 and b = Prng.split_at root 3 in
  Alcotest.(check int64) "same child stream" (Prng.bits64 a) (Prng.bits64 b);
  let c = Prng.split_at root 4 in
  Alcotest.(check bool) "distinct children" true
    (Prng.bits64 (Prng.split_at root 3) <> Prng.bits64 c)

let test_prng_int_bounds () =
  let rng = Prng.create 1L in
  for _ = 1 to 10000 do
    let v = Prng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_prng_int_rejects_bad_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int (Prng.create 1L) 0))

let test_prng_uniformity () =
  let rng = Prng.create 3L in
  let counts = Array.make 8 0 in
  let trials = 80000 in
  for _ = 1 to trials do
    let v = Prng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / 8 in
      Alcotest.(check bool) "within 5%" true
        (abs (c - expected) < expected / 20))
    counts

let test_sample_without_replacement () =
  let rng = Prng.create 5L in
  let s = Prng.sample_without_replacement rng ~n:50 ~k:20 in
  Alcotest.(check int) "size" 20 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 19 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 50)) s

let test_sample_full () =
  let rng = Prng.create 5L in
  let s = Prng.sample_without_replacement rng ~n:10 ~k:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 10 (fun i -> i)) sorted

let test_permutation () =
  let rng = Prng.create 5L in
  let p = Prng.permutation rng 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 30 (fun i -> i)) sorted

let test_stats_mean_var () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "variance" (5.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "singleton var" 0.0 (Stats.variance [| 9.0 |])

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0)

let test_stats_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 3.0; 5.0; 7.0; 9.0 |] in
  let a, b, r2 = Stats.linear_fit xs ys in
  check_float "intercept" 1.0 a;
  check_float "slope" 2.0 b;
  check_float "r2" 1.0 r2

let test_loglog_slope () =
  (* y = 4 n^1.5 *)
  let ns = [| 10.0; 100.0; 1000.0 |] in
  let ys = Array.map (fun n -> 4.0 *. (n ** 1.5)) ns in
  let b, r2 = Stats.loglog_slope ns ys in
  Alcotest.(check (float 1e-6)) "exponent" 1.5 b;
  Alcotest.(check (float 1e-6)) "r2" 1.0 r2

let test_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p" true (lo < 0.5 && hi > 0.5);
  Alcotest.(check bool) "proper" true (lo >= 0.0 && hi <= 1.0 && lo < hi)

let test_intmath () =
  Alcotest.(check int) "ceil_log2 1" 0 (Intmath.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 9" 4 (Intmath.ceil_log2 9);
  Alcotest.(check int) "floor_log2 9" 3 (Intmath.floor_log2 9);
  Alcotest.(check int) "pow" 243 (Intmath.pow 3 5);
  Alcotest.(check int) "cdiv" 4 (Intmath.cdiv 10 3);
  Alcotest.(check int) "isqrt 35" 5 (Intmath.isqrt 35);
  Alcotest.(check int) "isqrt 36" 6 (Intmath.isqrt 36);
  Alcotest.(check int) "clamp" 5 (Intmath.clamp ~lo:1 ~hi:5 9)

let test_table_render () =
  let s =
    Table.render ~title:"t" ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.length (String.trim s) > 0);
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Table.render ~title:"t" ~headers:[ "a"; "b" ] [ [ "1" ] ]))

let prop_isqrt =
  QCheck.Test.make ~name:"isqrt floor property" ~count:500
    QCheck.(int_bound 1000000)
    (fun n ->
      let r = Intmath.isqrt n in
      (r * r <= n) && (r + 1) * (r + 1) > n)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:200
    QCheck.(pair (int_range 1 100) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create (Int64.of_int seed) in
      let k = 1 + (seed mod n) in
      let s = Prng.sample_without_replacement rng ~n ~k in
      let tbl = Hashtbl.create 16 in
      Array.for_all
        (fun v ->
          if Hashtbl.mem tbl v then false
          else begin
            Hashtbl.add tbl v ();
            v >= 0 && v < n
          end)
        s)

module Wire = Ks_stdx.Wire

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 987654321;
  Wire.Writer.byte w 200;
  Wire.Writer.bool w true;
  Wire.Writer.u32 w 0xDEADBEEF;
  Wire.Writer.bytes w (Bytes.of_string "hello");
  Wire.Writer.word_array w [| 1; 2; 300000 |];
  let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
  Alcotest.(check int) "v0" 0 (Wire.Reader.varint r);
  Alcotest.(check int) "v127" 127 (Wire.Reader.varint r);
  Alcotest.(check int) "v128" 128 (Wire.Reader.varint r);
  Alcotest.(check int) "vbig" 987654321 (Wire.Reader.varint r);
  Alcotest.(check int) "byte" 200 (Wire.Reader.byte r);
  Alcotest.(check bool) "bool" true (Wire.Reader.bool r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  Alcotest.(check string) "bytes" "hello" (Bytes.to_string (Wire.Reader.bytes r));
  Alcotest.(check (array int)) "words" [| 1; 2; 300000 |] (Wire.Reader.word_array r);
  Alcotest.(check bool) "consumed" true (Wire.Reader.at_end r)

let test_wire_truncated () =
  let r = Wire.Reader.of_bytes (Bytes.of_string "\x80") in
  Alcotest.check_raises "truncated varint" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.varint r))

let prop_wire_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound 1073741823)
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w v;
      let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
      Wire.Reader.varint r = v && Wire.Reader.at_end r)

(* A random sequence of wire operations, written then read back in
   order: the whole format round-trips, not just single fields. *)
type wire_op =
  | Op_varint of int
  | Op_byte of int
  | Op_bool of bool
  | Op_u32 of int
  | Op_bytes of string
  | Op_words of int array

let wire_op_gen =
  QCheck.Gen.(
    oneof
      [
        (fun v -> Op_varint v) <$> int_bound 1073741823;
        (fun v -> Op_byte v) <$> int_bound 255;
        (fun b -> Op_bool b) <$> bool;
        (fun v -> Op_u32 v) <$> int_bound 0xFFFFFFFF;
        (fun s -> Op_bytes s) <$> string_size (int_bound 32);
        (fun a -> Op_words a) <$> array_size (int_bound 16) (int_bound 1_000_000);
      ])

let write_op w = function
  | Op_varint v -> Wire.Writer.varint w v
  | Op_byte v -> Wire.Writer.byte w v
  | Op_bool b -> Wire.Writer.bool w b
  | Op_u32 v -> Wire.Writer.u32 w v
  | Op_bytes s -> Wire.Writer.bytes w (Bytes.of_string s)
  | Op_words a -> Wire.Writer.word_array w a

let read_op_matches r = function
  | Op_varint v -> Wire.Reader.varint r = v
  | Op_byte v -> Wire.Reader.byte r = v
  | Op_bool b -> Wire.Reader.bool r = b
  | Op_u32 v -> Wire.Reader.u32 r = v
  | Op_bytes s -> Bytes.to_string (Wire.Reader.bytes r) = s
  | Op_words a -> Wire.Reader.word_array r = a

let prop_wire_sequence_roundtrip =
  QCheck.Test.make ~name:"wire op-sequence roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 24) wire_op_gen))
    (fun ops ->
      let w = Wire.Writer.create () in
      List.iter (write_op w) ops;
      let r = Wire.Reader.of_bytes (Wire.Writer.contents w) in
      List.for_all (read_op_matches r) ops && Wire.Reader.at_end r)

let prop_wire_truncation_robust =
  (* Chopping the encoded buffer anywhere must produce [Truncated] (or a
     clean short read of the prefix fields) — never a crash or a phantom
     value read past the end. *)
  QCheck.Test.make ~name:"wire truncation raises cleanly" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 12) wire_op_gen) (int_bound 1000)))
    (fun (ops, cut) ->
      let w = Wire.Writer.create () in
      List.iter (write_op w) ops;
      let full = Wire.Writer.contents w in
      let cut = Stdlib.min cut (Bytes.length full) in
      let r = Wire.Reader.of_bytes (Bytes.sub full 0 cut) in
      (* Reading the ops back either matches the original writes until
         the data runs out, or raises Truncated — anything else fails. *)
      try List.for_all (read_op_matches r) ops || cut < Bytes.length full
      with Wire.Reader.Truncated -> cut < Bytes.length full)

(* --- Dtbl: deterministic hashtable traversal (lint rule R2's cure) --- *)

let test_dtbl_sorted () =
  let tbl = Hashtbl.create 8 in
  (* Insertion order deliberately scrambled. *)
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) [ (5, "e"); (1, "a"); (9, "i"); (3, "c") ]
  ;
  Alcotest.(check (list int))
    "sorted_keys ascending" [ 1; 3; 5; 9 ]
    (Ks_stdx.Dtbl.sorted_keys ~cmp:Ks_stdx.Dtbl.int_cmp tbl);
  Alcotest.(check (list (pair int string)))
    "bindings_sorted" [ (1, "a"); (3, "c"); (5, "e"); (9, "i") ]
    (Ks_stdx.Dtbl.bindings_sorted ~cmp:Ks_stdx.Dtbl.int_cmp tbl);
  let visited = ref [] in
  Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_cmp
    (fun k _ -> visited := k :: !visited)
    tbl;
  Alcotest.(check (list int)) "iter_sorted order" [ 9; 5; 3; 1 ] !visited;
  Alcotest.(check string) "fold_sorted accumulates in key order" "acei"
    (Ks_stdx.Dtbl.fold_sorted ~cmp:Ks_stdx.Dtbl.int_cmp (fun _ v acc -> acc ^ v) tbl "")

let test_dtbl_comparators () =
  let sorted cmp l = List.sort cmp l in
  Alcotest.(check (list (pair int int)))
    "pair_cmp lexicographic"
    [ (1, 2); (1, 9); (2, 0) ]
    (sorted Ks_stdx.Dtbl.pair_cmp [ (2, 0); (1, 9); (1, 2) ]);
  Alcotest.(check bool) "int_list_cmp prefix is smaller" true
    (Ks_stdx.Dtbl.int_list_cmp [ 1; 2 ] [ 1; 2; 0 ] < 0);
  Alcotest.(check bool) "int_list_cmp lexicographic" true
    (Ks_stdx.Dtbl.int_list_cmp [ 1; 3 ] [ 1; 2; 9 ] > 0)

let () =
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "split_at stable" `Quick test_prng_split_at_stable;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_prng_int_rejects_bad_bound;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "sampling distinct" `Quick test_sample_without_replacement;
          Alcotest.test_case "sampling full range" `Quick test_sample_full;
          Alcotest.test_case "permutation" `Quick test_permutation;
          QCheck_alcotest.to_alcotest prop_sample_distinct;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_var;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_fit;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
        ] );
      ( "intmath",
        [
          Alcotest.test_case "basics" `Quick test_intmath;
          QCheck_alcotest.to_alcotest prop_isqrt;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "dtbl",
        [
          Alcotest.test_case "sorted traversal" `Quick test_dtbl_sorted;
          Alcotest.test_case "comparators" `Quick test_dtbl_comparators;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          QCheck_alcotest.to_alcotest prop_wire_varint;
          QCheck_alcotest.to_alcotest prop_wire_sequence_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_truncation_robust;
        ] );
    ]
