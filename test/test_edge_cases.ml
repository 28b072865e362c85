(* Edge-case and failure-injection tests across the stack. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Degenerate matrices *)

let test_svd_single_entry () =
  let f = Linalg.Svd.factor (Linalg.Mat.of_arrays [| [| -7.0 |] |]) in
  check_close "singular value" 7.0 f.s.(0);
  Alcotest.(check bool) "reconstructs" true
    (Linalg.Mat.equal ~tol:1e-12 (Linalg.Mat.of_arrays [| [| -7.0 |] |])
       (Linalg.Svd.reconstruct f))

let test_svd_single_row_and_column () =
  let row = Linalg.Mat.of_arrays [| [| 3.0; 4.0 |] |] in
  let f = Linalg.Svd.factor row in
  check_close "row norm" 5.0 f.s.(0);
  let col = Linalg.Mat.of_arrays [| [| 3.0 |]; [| 4.0 |] |] in
  let g = Linalg.Svd.factor col in
  check_close "col norm" 5.0 g.s.(0)

let test_svd_rank_one_large () =
  let u = Array.init 40 (fun i -> sin (float_of_int i)) in
  let v = Array.init 25 (fun j -> cos (float_of_int j)) in
  let a = Linalg.Mat.init 40 25 (fun i j -> u.(i) *. v.(j)) in
  let f = Linalg.Svd.factor a in
  Alcotest.(check int) "rank 1" 1 (Linalg.Svd.rank f);
  check_close ~tol:1e-8 "s0 = |u||v|" (Linalg.Vec.norm2 u *. Linalg.Vec.norm2 v) f.s.(0)

let test_qr_zero_column () =
  (* pivoting must push an all-zero column last *)
  let a =
    Linalg.Mat.of_arrays
      [| [| 1.0; 0.0; 2.0 |]; [| 3.0; 0.0; 4.0 |]; [| 5.0; 0.0; 6.0 |] |]
  in
  let f = Linalg.Qr.factor_pivoted a in
  let perm = Linalg.Qr.perm f in
  Alcotest.(check int) "zero column pivoted last" 1 perm.(2)

let test_pinv_of_zero () =
  let p = Linalg.Pinv.compute (Linalg.Mat.create 3 2) in
  check_close "pinv of zero is zero" 0.0 (Linalg.Mat.norm_inf p)

let test_mat_empty_product () =
  let a = Linalg.Mat.create 0 5 in
  let b = Linalg.Mat.create 5 0 in
  let c = Linalg.Mat.mul a (Linalg.Mat.create 5 3) in
  Alcotest.(check (pair int int)) "0x3" (0, 3) (Linalg.Mat.dims c);
  let d = Linalg.Mat.mul (Linalg.Mat.create 3 5) b in
  Alcotest.(check (pair int int)) "3x0" (3, 0) (Linalg.Mat.dims d)

(* ------------------------------------------------------------------ *)
(* Ill-conditioned predictor inputs *)

let test_predictor_duplicate_rows () =
  (* duplicated representative rows make the Gram singular; the
     pseudo-inverse branch must still give an exact predictor *)
  let a =
    Linalg.Mat.of_arrays
      [| [| 1.0; 0.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |]
  in
  let mu = [| 1.0; 1.0; 2.0; 3.0 |] in
  let p = Core.Predictor.build ~a ~mu ~rep:[| 0; 1; 2 |] in
  let sig_err = Core.Predictor.error_sigmas p in
  check_close ~tol:1e-8 "exact despite singular gram" 0.0 sig_err.(0);
  let pred = Core.Predictor.predict p ~measured:[| 1.5; 1.5; 2.25 |] in
  check_close ~tol:1e-8 "prediction" 3.75 pred.(0)

let test_predictor_all_paths_representative () =
  let a = Linalg.Mat.identity 3 in
  let mu = [| 1.0; 2.0; 3.0 |] in
  let p = Core.Predictor.build ~a ~mu ~rep:[| 0; 1; 2 |] in
  Alcotest.(check int) "no remaining paths" 0 (Array.length (Core.Predictor.rem_indices p));
  check_close "zero worst case" 0.0 (Core.Predictor.epsilon_r p ~kappa:3.0 ~t_cons:1.0)

let test_select_on_rank_one_pool () =
  (* all paths proportional: one representative suffices at any eps *)
  let a = Linalg.Mat.init 6 4 (fun i j -> float_of_int (i + 1) *. [| 1.0; 0.5; 0.25; 0.1 |].(j)) in
  let mu = Array.init 6 (fun i -> 100.0 +. float_of_int i) in
  let sel = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons:100.0 () in
  Alcotest.(check int) "rank 1" 1 sel.Core.Select.rank;
  Alcotest.(check int) "one path" 1 (Array.length sel.Core.Select.indices);
  Alcotest.(check bool) "zero error" true (sel.Core.Select.eps_r < 1e-8)

let test_hybrid_on_tiny_pool () =
  (* hybrid on the figure-1 style pool should still produce a feasible
     measurement plan *)
  let pi i = Circuit.Netlist.Pi i in
  let gout g = Circuit.Netlist.Gate_out g in
  let nl =
    Circuit.Netlist.build ~name:"tiny" ~num_inputs:2
      ~gates:
        [
          ("a", Circuit.Cell.Inv, [| pi 0 |], (0.2, 0.2));
          ("b", Circuit.Cell.Inv, [| pi 1 |], (0.2, 0.8));
          ("c", Circuit.Cell.Nand2, [| gout 0; gout 1 |], (0.5, 0.5));
          ("d", Circuit.Cell.Inv, [| gout 2 |], (0.8, 0.5));
        ]
      ~outputs:[ gout 3 ]
  in
  let dm = Timing.Delay_model.build nl (Timing.Variation.make_model ~levels:2 ()) in
  let r = Timing.Path_extract.extract dm ~t_cons:1.0 ~yield_threshold:0.9999 in
  let pool = Timing.Paths.build dm r.Timing.Path_extract.paths in
  (* a realistic constraint: with T near the nominal path delay, the
     per-path uncertainty exceeds eps*T and something must be measured *)
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let h =
    Core.Hybrid.run
      ~a:(Timing.Paths.a_mat pool) ~g:(Timing.Paths.g_mat pool)
      ~sigma:(Timing.Paths.sigma_mat pool) ~mu:(Timing.Paths.mu_paths pool)
      ~eps:0.05 ~t_cons ()
  in
  Alcotest.(check bool) "some measurements" true (Core.Hybrid.total_measurements h > 0);
  Alcotest.(check bool) "bounded by pool" true
    (Core.Hybrid.total_measurements h
     <= Timing.Paths.num_paths pool + Timing.Paths.num_segments pool)

(* ------------------------------------------------------------------ *)
(* Failure injection: measurement noise *)

let test_prediction_degrades_gracefully_with_noise () =
  (* corrupt the measured representative delays with noise; the
     prediction error must grow smoothly, not explode (the predictor's
     weights are bounded) *)
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 120; seed = 77 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let setup = Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:150 () in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let p = sel.Core.Select.predictor in
  let mc = Timing.Monte_carlo.sample (Rng.create 5) setup.Core.Pipeline.pool ~n:200 in
  let d = Timing.Monte_carlo.path_delays mc in
  let rep = Core.Predictor.rep_indices p in
  let noise_rng = Rng.create 6 in
  let eval noise_std =
    let measured =
      Linalg.Mat.init 200 (Array.length rep) (fun i k ->
          Linalg.Mat.get d i rep.(k) +. (noise_std *. Rng.gaussian noise_rng))
    in
    let truth = Linalg.Mat.select_cols d (Core.Predictor.rem_indices p) in
    let m = Core.Evaluate.of_predictions ~truth
        ~predicted:(Core.Predictor.predict_all p ~measured) in
    m.Core.Evaluate.e2
  in
  let clean = eval 0.0 in
  let noisy = eval 1.0 in
  let very_noisy = eval 4.0 in
  Alcotest.(check bool) "noise hurts" true (noisy > clean);
  Alcotest.(check bool) "but boundedly (16x noise var < 40x error)" true
    (very_noisy < Float.max 0.02 (40.0 *. Float.max 1e-6 noisy))

(* ------------------------------------------------------------------ *)
(* Determinism of the full pipeline *)

let test_pipeline_fully_deterministic () =
  let build () =
    let nl =
      Circuit.Generator.generate
        { Circuit.Generator.default with num_gates = 100; seed = 31 }
    in
    let model = Timing.Variation.make_model ~levels:3 () in
    let setup = Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:100 () in
    let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
    (Timing.Paths.num_paths setup.Core.Pipeline.pool, sel.Core.Select.indices,
     sel.Core.Select.eps_r)
  in
  let n1, i1, e1 = build () in
  let n2, i2, e2 = build () in
  Alcotest.(check int) "same pool" n1 n2;
  Alcotest.(check (array int)) "same selection" i1 i2;
  check_close "same error" e1 e2

(* ------------------------------------------------------------------ *)
(* Numerical-stability property tests *)

let prop_svd_scale_invariance =
  QCheck.Test.make ~count:40 ~name:"svd singular values scale linearly"
    QCheck.(pair (int_range 1 300) (float_range 0.1 100.0))
    (fun (seed, scale) ->
      let a =
        Linalg.Mat.init 6 4 (fun i j -> sin (float_of_int ((seed * 13) + (i * 5) + j)))
      in
      let s1 = (Linalg.Svd.factor a).Linalg.Svd.s in
      let s2 = (Linalg.Svd.factor (Linalg.Mat.scale scale a)).Linalg.Svd.s in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. (scale *. s1.(i))) > 1e-6 *. Float.max 1.0 (scale *. s1.(i))
          then ok := false)
        s2;
      !ok)

let prop_predictor_row_permutation_invariant =
  QCheck.Test.make ~count:25 ~name:"error sigma set invariant to remaining-row order"
    QCheck.(int_range 1 200)
    (fun seed ->
      let a = Linalg.Mat.init 8 5 (fun i j -> cos (float_of_int ((seed * 7) + (i * 3) + j))) in
      let mu = Array.init 8 (fun i -> 10.0 +. float_of_int i) in
      let p = Core.Predictor.build ~a ~mu ~rep:[| 0; 3 |] in
      let sig1 = Core.Predictor.error_sigmas p in
      (* permute the non-representative rows of a and rebuild: the multiset
         of error sigmas must be unchanged *)
      let order = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
      let swap i j = let t = order.(i) in order.(i) <- order.(j); order.(j) <- t in
      swap 1 6; swap 2 5;
      let a2 = Linalg.Mat.select_rows a order in
      let mu2 = Array.map (fun i -> mu.(i)) order in
      let p2 = Core.Predictor.build ~a:a2 ~mu:mu2 ~rep:[| 0; 3 |] in
      let sig2 = Core.Predictor.error_sigmas p2 in
      let sorted x = let y = Array.copy x in Array.sort compare y; y in
      Linalg.Vec.equal ~tol:1e-9 (sorted sig1) (sorted sig2))

let unit_tests =
  [
    ("svd: 1x1", test_svd_single_entry);
    ("svd: single row / column", test_svd_single_row_and_column);
    ("svd: large rank-1", test_svd_rank_one_large);
    ("qr: zero column pivoted last", test_qr_zero_column);
    ("pinv: of zero matrix", test_pinv_of_zero);
    ("mat: empty products", test_mat_empty_product);
    ("predictor: duplicate representative rows", test_predictor_duplicate_rows);
    ("predictor: all paths representative", test_predictor_all_paths_representative);
    ("select: rank-one pool", test_select_on_rank_one_pool);
    ("hybrid: tiny pool", test_hybrid_on_tiny_pool);
    ("noise: graceful degradation", test_prediction_degrades_gracefully_with_noise);
    ("pipeline: fully deterministic", test_pipeline_fully_deterministic);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_svd_scale_invariance; prop_predictor_row_permutation_invariant ]

let suites =
  [
    ( "edge-cases",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
