(* Tests for measurement modelling and the randomized selection path. *)

open Helpers

let test_measurement_ideal_identity () =
  let rng = Rng.create 1 in
  check_close "identity" 123.456
    (Timing.Measurement.apply Timing.Measurement.ideal rng 123.456)

let test_measurement_quantization () =
  let m = { Timing.Measurement.quantization_ps = 2.0; jitter_sigma_ps = 0.0;
            offset_ps = 0.0 } in
  let rng = Rng.create 1 in
  check_close "rounds down" 122.0 (Timing.Measurement.apply m rng 122.9);
  check_close "rounds up" 124.0 (Timing.Measurement.apply m rng 123.1);
  (* all outputs on the grid *)
  for i = 0 to 50 do
    let v = Timing.Measurement.apply m rng (100.0 +. (0.37 *. float_of_int i)) in
    let q = v /. 2.0 in
    if Float.abs (q -. Float.round q) > 1e-9 then
      Alcotest.failf "off-grid measurement %g" v
  done

let test_measurement_offset () =
  let m = { Timing.Measurement.quantization_ps = 0.0; jitter_sigma_ps = 0.0;
            offset_ps = 1.5 } in
  let rng = Rng.create 1 in
  check_close "offset added" 101.5 (Timing.Measurement.apply m rng 100.0)

let test_measurement_jitter_statistics () =
  let m = { Timing.Measurement.quantization_ps = 0.0; jitter_sigma_ps = 2.0;
            offset_ps = 0.0 } in
  let rng = Rng.create 5 in
  let xs = Array.init 20_000 (fun _ -> Timing.Measurement.apply m rng 100.0) in
  check_close ~tol:0.1 "mean preserved" 100.0 (Stats.Descriptive.mean xs);
  check_close ~tol:0.1 "sigma = jitter" 2.0 (Stats.Descriptive.stddev xs)

let test_measurement_worst_case () =
  let m = { Timing.Measurement.quantization_ps = 2.0; jitter_sigma_ps = 1.0;
            offset_ps = 0.5 } in
  check_close "bound" (0.5 +. 1.0 +. 3.0) (Timing.Measurement.worst_case_error m ~kappa:3.0)

let test_measurement_error_within_bound () =
  let m = Timing.Measurement.typical_path_ro in
  let bound = Timing.Measurement.worst_case_error m ~kappa:4.0 in
  let rng = Rng.create 9 in
  for _ = 1 to 5_000 do
    let d = 200.0 +. Rng.uniform rng 0.0 100.0 in
    let v = Timing.Measurement.apply m rng d in
    if Float.abs (v -. d) > bound then
      Alcotest.failf "error %.3f above bound %.3f" (Float.abs (v -. d)) bound
  done

let test_measurement_apply_mat () =
  let m = { Timing.Measurement.quantization_ps = 1.0; jitter_sigma_ps = 0.0;
            offset_ps = 0.0 } in
  let rng = Rng.create 2 in
  let input = Linalg.Mat.of_arrays [| [| 1.4; 2.6 |] |] in
  let out = Timing.Measurement.apply_mat m rng input in
  check_close "entry 0" 1.0 (Linalg.Mat.get out 0 0);
  check_close "entry 1" 3.0 (Linalg.Mat.get out 0 1)

(* ------------------------------------------------------------------ *)
(* Randomized selection *)

(* Algorithm 1 on a fixed-rank randomized sketch of A *)
let sketched ~a ~mu ~t_cons k =
  Core.Select.approximate ~engine:Core.Select.Sketched
    ~sketch:{ Core.Select.default_sketch with sketch_rank = Some k }
    ~a ~mu ~eps:0.05 ~t_cons ()

let test_randomized_select_meets_tolerance () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let sel =
    sketched ~a ~mu ~t_cons:setup.Core.Pipeline.t_cons 40
  in
  Alcotest.(check bool) "eps_r <= eps" true (sel.Core.Select.eps_r <= 0.05)

let test_randomized_select_close_to_exact () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let exact = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons () in
  let rand =
    sketched ~a ~mu ~t_cons 40
  in
  let ne = Array.length exact.Core.Select.indices in
  let nr = Array.length rand.Core.Select.indices in
  if nr > (2 * ne) + 2 then
    Alcotest.failf "randomized selection much larger: %d vs %d" nr ne

let test_randomized_select_deterministic () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let s1 = sketched ~a ~mu ~t_cons 30 in
  let s2 = sketched ~a ~mu ~t_cons 30 in
  Alcotest.(check (array int)) "same selection" s1.Core.Select.indices
    s2.Core.Select.indices

let test_prediction_under_path_ro_measurement () =
  (* end-to-end: typical path-RO measurement error must barely move the
     MC accuracy of the predictor *)
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let p = sel.Core.Select.predictor in
  let mc = Timing.Monte_carlo.sample (Rng.create 3) setup.Core.Pipeline.pool ~n:800 in
  let d = Timing.Monte_carlo.path_delays mc in
  let rep = Core.Predictor.rep_indices p in
  let rem = Core.Predictor.rem_indices p in
  let truth = Linalg.Mat.select_cols d rem in
  let clean = Linalg.Mat.select_cols d rep in
  let noisy =
    Timing.Measurement.apply_mat Timing.Measurement.typical_path_ro (Rng.create 4) clean
  in
  let m_clean =
    Core.Evaluate.of_predictions ~truth ~predicted:(Core.Predictor.predict_all p ~measured:clean)
  in
  let m_noisy =
    Core.Evaluate.of_predictions ~truth ~predicted:(Core.Predictor.predict_all p ~measured:noisy)
  in
  Alcotest.(check bool)
    (Printf.sprintf "e2 inflation small: %.3f%% -> %.3f%%"
       (100.0 *. m_clean.Core.Evaluate.e2) (100.0 *. m_noisy.Core.Evaluate.e2))
    true
    (m_noisy.Core.Evaluate.e2 < m_clean.Core.Evaluate.e2 +. 0.01)

let unit_tests =
  [
    ("measurement: ideal identity", test_measurement_ideal_identity);
    ("measurement: quantization grid", test_measurement_quantization);
    ("measurement: offset", test_measurement_offset);
    ("measurement: jitter statistics", test_measurement_jitter_statistics);
    ("measurement: worst-case bound formula", test_measurement_worst_case);
    ("measurement: errors within bound", test_measurement_error_within_bound);
    ("measurement: matrix apply", test_measurement_apply_mat);
    ("rsvd-select: meets tolerance", test_randomized_select_meets_tolerance);
    ("rsvd-select: close to exact", test_randomized_select_close_to_exact);
    ("rsvd-select: deterministic", test_randomized_select_deterministic);
    ("e2e: path-RO measurement barely hurts", test_prediction_under_path_ro_measurement);
  ]

let suites =
  [
    ( "measurement",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
