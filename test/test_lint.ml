(* Fixture tests for the ks_lint determinism & bit-accounting linter:
   every rule R1–R5 both firing and passing, suppression handling, and
   the determinism regression the linter exists to protect (same seed,
   byte-identical trace). *)

module L = Ks_lint_rules
module Trace = Ks_monitor.Trace
module Hub = Ks_monitor.Hub

let diags ~path src =
  match L.lint_source ~path src with
  | L.Clean -> []
  | L.Diagnostics ds -> ds
  | L.Parse_error e -> Alcotest.failf "unexpected parse error: %s" e

let rules ~path src = List.map (fun d -> L.rule_name d.L.rule) (diags ~path src)

let check_rules name ~path src expected =
  Alcotest.(check (list string)) name expected (rules ~path src)

(* --- R1: ambient randomness ------------------------------------------- *)

let test_r1 () =
  let src = "let x = Random.int 10\nlet y = Stdlib.Random.bits ()\n" in
  check_rules "R1 fires twice in lib/core" ~path:"lib/core/fixture.ml" src [ "R1"; "R1" ];
  check_rules "R1 fires in bin too" ~path:"bin/fixture.ml" src [ "R1"; "R1" ];
  check_rules "R1 exempt in lib/stdx (the PRNG home)" ~path:"lib/stdx/fixture.ml" src [];
  (* The fault injector draws from its own seeded plan stream; ambient
     randomness there would silently break fault-plan replay. *)
  check_rules "R1 fires in lib/faults" ~path:"lib/faults/fixture.ml" src
    [ "R1"; "R1" ];
  check_rules "seeded injector stream passes" ~path:"lib/faults/fixture.ml"
    "let x t = Ks_stdx.Prng.bernoulli t.rng t.plan.drop\n" [];
  check_rules "seeded PRNG passes" ~path:"lib/core/fixture.ml"
    "let x rng = Ks_stdx.Prng.int rng 10\n" []

(* --- R2: hashtable iteration order ------------------------------------ *)

let test_r2 () =
  let src =
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n\
     let g tbl = Stdlib.Hashtbl.fold (fun _ _ a -> a) tbl 0\n\
     let h tbl = Hashtbl.to_seq tbl\n"
  in
  check_rules "R2 fires on iter/fold/to_seq in lib/sim" ~path:"lib/sim/fixture.ml" src
    [ "R2"; "R2"; "R2" ];
  check_rules "R2 out of scope in lib/workload" ~path:"lib/workload/fixture.ml" src [];
  check_rules "sorted traversal passes" ~path:"lib/core/fixture.ml"
    "let f tbl = Ks_stdx.Dtbl.iter_sorted ~cmp:Ks_stdx.Dtbl.int_cmp (fun _ _ -> ()) tbl\n\
     let ok tbl = Hashtbl.replace tbl 1 2; Hashtbl.find_opt tbl 1\n"
    []

(* --- R3: polymorphic comparison --------------------------------------- *)

let test_r3 () =
  check_rules "R3 fires on bare compare and (=) as value"
    ~path:"lib/topology/fixture.ml"
    "let a = compare 1 2\n\
     let b = List.sort compare [ 3; 1 ]\n\
     let c = List.mem2 ( = ) 1 [ 1 ]\n"
    [ "R3"; "R3"; "R3" ];
  check_rules "infix equality and monomorphic comparators pass"
    ~path:"lib/topology/fixture.ml"
    "let a x = x = 1\nlet b = List.sort Int.compare [ 3; 1 ]\nlet c x y = x <> y\n" [];
  check_rules "R3 out of scope in test code" ~path:"test/fixture.ml"
    "let a = compare 1 2\n" []

(* --- R4: bypassing the metered network layer --------------------------- *)

let test_r4 () =
  let src =
    "let f m = Meter.charge_send m 0 ~bits:8\n\
     let g m = Ks_sim.Meter.tick_round m\n\
     let h () = print_endline \"leak\"\n\
     let i () = Printf.printf \"leak %d\" 1\n"
  in
  check_rules "R4 fires on Meter calls and raw channel writes in lib/core"
    ~path:"lib/core/fixture.ml" src
    [ "R4"; "R4"; "R4"; "R4" ];
  check_rules "the network layer itself is exempt" ~path:"lib/sim/net.ml" src [];
  check_rules "Format.fprintf to a caller's formatter (pp idiom) passes"
    ~path:"lib/core/fixture.ml"
    "let pp fmt t = Format.fprintf fmt \"%d\" t\n" []

(* --- R5: wall clock ----------------------------------------------------- *)

let test_r5 () =
  let src = "let a = Unix.gettimeofday ()\nlet b = Sys.time ()\n" in
  check_rules "R5 fires anywhere under lib/" ~path:"lib/monitor/fixture.ml" src
    [ "R5"; "R5" ];
  check_rules "R5 out of scope outside lib/" ~path:"bench/fixture.ml" src [];
  (* Fault timing must be measured in rounds, never wall clock — a
     wall-clock fault schedule could not replay. *)
  check_rules "R5 fires in lib/faults" ~path:"lib/faults/fixture.ml" src
    [ "R5"; "R5" ];
  check_rules "round-based silence windows pass" ~path:"lib/faults/fixture.ml"
    "let silent t p = t.silent_until.(p) > t.round\n" [];
  check_rules "logical round counters pass" ~path:"lib/sim/fixture.ml"
    "let a rounds = rounds + 1\n" []

(* --- lib/attacks is protocol code --------------------------------------- *)

(* Attack strategies must replay from their seed like everything else in
   the protocol tree: an attack drawing ambient randomness or wall clock
   would make every survival row in T17 unreproducible. *)
let test_attacks_in_scope () =
  check_rules "R1 fires in lib/attacks" ~path:"lib/attacks/fixture.ml"
    "let flip () = Random.bool ()\n" [ "R1" ];
  check_rules "R2 fires in lib/attacks" ~path:"lib/attacks/fixture.ml"
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n" [ "R2" ];
  check_rules "R5 fires in lib/attacks" ~path:"lib/attacks/fixture.ml"
    "let now () = Unix.gettimeofday ()\n" [ "R5" ];
  check_rules "seeded per-processor stream passes" ~path:"lib/attacks/fixture.ml"
    "let flip net p = Ks_stdx.Prng.bool (Ks_sim.Net.proc_rng net p)\n" []

(* --- Suppressions ------------------------------------------------------- *)

let test_suppressions () =
  check_rules "justified suppression on the same line is honoured"
    ~path:"lib/core/fixture.ml"
    "let x = Random.bits () (* ks_lint: allow R1 — fixture needs raw entropy *)\n" [];
  check_rules "justified suppression on the line above is honoured"
    ~path:"lib/core/fixture.ml"
    "(* ks_lint: allow R2 — replace-populated, order folded into a sum *)\n\
     let f tbl = Hashtbl.fold (fun _ v a -> v + a) tbl 0\n"
    [];
  (match
     diags ~path:"lib/core/fixture.ml"
       "(* ks_lint: allow R2 *)\nlet f tbl = Hashtbl.fold (fun _ v a -> v + a) tbl 0\n"
   with
   | [ d ] ->
     Alcotest.(check string) "unjustified suppression still reports R2" "R2"
       (L.rule_name d.L.rule);
     Alcotest.(check bool)
       "message demands a justification" true
       (let m = d.L.message in
        let rec has i =
          i + 13 <= String.length m && (String.sub m i 13 = "justification" || has (i + 1))
        in
        has 0)
   | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  check_rules "a suppression for the wrong rule does not mask"
    ~path:"lib/core/fixture.ml"
    "(* ks_lint: allow R1 — wrong rule entirely for this site *)\n\
     let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n"
    [ "R2" ]

(* --- Diagnostics & parse errors ----------------------------------------- *)

let test_rendering () =
  match diags ~path:"lib/core/fixture.ml" "let a = ()\nlet x = Random.int 10\n" with
  | [ d ] ->
    let rendered = L.render_diagnostic d in
    Alcotest.(check int) "line number" 2 d.L.line;
    let prefix = "lib/core/fixture.ml:2: [R1]" in
    Alcotest.(check string) "file:line: [rule] prefix" prefix
      (String.sub rendered 0 (String.length prefix))
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_parse_error () =
  match L.lint_source ~path:"lib/core/fixture.ml" "let let let" with
  | L.Parse_error _ -> ()
  | L.Clean | L.Diagnostics _ -> Alcotest.fail "expected a parse error"

(* --- The whole tree is lint-clean --------------------------------------- *)

(* Run the engine over the real sources, exactly as `dune build @lint`
   does.  The test cwd is _build/default/test, so walk up to the project
   roots; when the sandbox does not expose them, there is nothing to
   check. *)
let test_tree_clean () =
  let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  let roots =
    List.filter Sys.file_exists
      (List.map (Filename.concat build_root)
         [ "lib"; "bin"; "bench"; "examples"; "test" ])
  in
  if roots <> [] then begin
    let summary = L.lint_paths roots in
    List.iter
      (fun d -> Printf.eprintf "%s\n" (L.render_diagnostic d))
      summary.L.diagnostics;
    Alcotest.(check int) "no violations in the tree" 0
      (List.length summary.L.diagnostics);
    Alcotest.(check (list string)) "no errors" [] summary.L.errors
  end

(* --- Determinism regression --------------------------------------------- *)

(* The invariant the linter protects, checked end to end: one experiment
   table, same seed, run twice — byte-identical structured trace and
   identical rows.  T3 exercises the sorted-traversal rewrites in
   comm.ml / ae_ba.ml / ae_to_e.ml. *)
let traced_t3 () =
  let sink = Trace.ring ~capacity:200_000 in
  let hub = Hub.create ~trace:sink [] in
  let rows =
    Hub.with_ambient hub (fun () ->
        Ks_workload.Experiments.t3_ae_agreement ~ns:[ 32 ] ~seeds:[ 1 ] ())
  in
  ignore (Hub.finish hub);
  (rows, Trace.render (Trace.contents sink))

let test_determinism () =
  let rows1, trace1 = traced_t3 () in
  let rows2, trace2 = traced_t3 () in
  Alcotest.(check bool) "trace is non-empty" true (String.length trace1 > 0);
  Alcotest.(check string) "same seed, byte-identical trace" trace1 trace2;
  Alcotest.(check (list (list string))) "same seed, identical rows" rows1 rows2

(* Same invariant for the optimized decode kernels (support-mask skips
   and inverse-table window scoring in best_codeword, Gao's decoder,
   barycentric evaluators, Mersenne-shift multiplication): a seeded
   decoding workload rendered to text must be byte-identical across
   runs. *)
module Shamir = Ks_shamir.Shamir
module Zp = Ks_field.Zp

let decode_workload () =
  let rng = Ks_stdx.Prng.create 4242L in
  let out = Buffer.create 4096 in
  for trial = 1 to 40 do
    let threshold = 2 + (trial mod 4) in
    let holders = (3 * (threshold + 1)) + (trial mod 5) in
    let secret = Zp.random rng in
    let shares = Shamir.deal rng ~threshold ~holders secret in
    let nerr = trial mod (holders - threshold) in
    let idx = Ks_stdx.Prng.sample_without_replacement rng ~n:holders ~k:nerr in
    Array.iter
      (fun i -> shares.(i) <- { shares.(i) with Shamir.value = Zp.random rng })
      idx;
    (match Shamir.reconstruct_robust ~threshold (Array.to_list shares) with
     | Some v -> Buffer.add_string out (Printf.sprintf "%d:some:%d\n" trial (Zp.to_int v))
     | None -> Buffer.add_string out (Printf.sprintf "%d:none\n" trial));
    let words = Array.init 5 (fun w -> Zp.of_int ((trial * 10) + w)) in
    let xs = Array.init holders (fun i -> i) in
    let per_holder = Shamir.deal_vector_at rng ~threshold ~xs words in
    let holder_vecs =
      List.init holders (fun h ->
          let v =
            if h < nerr then Array.map (fun _ -> Zp.random rng) per_holder.(h)
            else per_holder.(h)
          in
          (xs.(h), v))
    in
    match Shamir.reconstruct_vectors ~threshold holder_vecs with
    | Some vs ->
      Buffer.add_string out
        (Printf.sprintf "%d:vec:%s\n" trial
           (String.concat ","
              (Array.to_list (Array.map (fun v -> string_of_int (Zp.to_int v)) vs))))
    | None -> Buffer.add_string out (Printf.sprintf "%d:vec:none\n" trial)
  done;
  Buffer.contents out

let test_decode_determinism () =
  let a = decode_workload () in
  let b = decode_workload () in
  Alcotest.(check bool) "workload is non-empty" true (String.length a > 0);
  Alcotest.(check string) "seeded decode workload twice, byte-identical" a b

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 ambient randomness" `Quick test_r1;
          Alcotest.test_case "R2 hashtable iteration" `Quick test_r2;
          Alcotest.test_case "R3 polymorphic comparison" `Quick test_r3;
          Alcotest.test_case "R4 unmetered channels" `Quick test_r4;
          Alcotest.test_case "R5 wall clock" `Quick test_r5;
          Alcotest.test_case "lib/attacks in scope" `Quick test_attacks_in_scope;
        ] );
      ( "suppressions",
        [ Alcotest.test_case "allow comments" `Quick test_suppressions ] );
      ( "diagnostics",
        [
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "tree is lint-clean" `Quick test_tree_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "t3 twice, same trace" `Slow test_determinism;
          Alcotest.test_case "decode workload twice, same bytes" `Quick
            test_decode_determinism;
        ] );
    ]
