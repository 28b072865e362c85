(* Tests for the core library: effective rank, subset selection,
   Theorem-2 predictor, Algorithms 1 and 3, guard-band analysis, and the
   end-to-end pipeline. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Effective rank *)

let test_effective_rank_known () =
  let s = [| 10.0; 5.0; 1.0; 0.5; 0.25 |] in
  (* E = 16.75; (1-0.05)E = 15.9125 -> needs 10+5+1 = 16 -> k = 3 *)
  Alcotest.(check int) "eta 5%" 3 (Core.Effective_rank.of_singular_values ~eta:0.05 s);
  (* (1-0.4)E = 10.05 -> 10+5 = 15 >= 10.05 at k = 2 *)
  Alcotest.(check int) "eta 40%" 2 (Core.Effective_rank.of_singular_values ~eta:0.4 s)

let test_effective_rank_bounds () =
  let s = [| 4.0; 3.0; 2.0; 1.0 |] in
  let er = Core.Effective_rank.of_singular_values ~eta:0.05 s in
  Alcotest.(check bool) "1 <= er <= n" true (er >= 1 && er <= 4);
  Alcotest.(check int) "zero spectrum" 0
    (Core.Effective_rank.of_singular_values ~eta:0.05 [| 0.0; 0.0 |])

let test_effective_rank_monotone_in_eta () =
  let s = Array.init 20 (fun i -> exp (-0.4 *. float_of_int i)) in
  let e1 = Core.Effective_rank.of_singular_values ~eta:0.01 s in
  let e10 = Core.Effective_rank.of_singular_values ~eta:0.10 s in
  Alcotest.(check bool) "larger eta, smaller effective rank" true (e10 <= e1)

let test_effective_rank_le_rank () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.pool in
  let svd = Linalg.Svd.factor a in
  let er = Core.Effective_rank.of_singular_values ~eta:0.05 svd.Linalg.Svd.s in
  Alcotest.(check bool) "effective rank <= rank" true (er <= Linalg.Svd.rank svd)

let test_effective_rank_validation () =
  Alcotest.(check bool) "bad eta" true
    (match Core.Effective_rank.of_singular_values ~eta:1.5 [| 1.0 |] with
     | (_ : int) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unsorted spectrum" true
    (match Core.Effective_rank.of_singular_values ~eta:0.05 [| 1.0; 2.0 |] with
     | (_ : int) -> false
     | exception Invalid_argument _ -> true)

let test_energy_profile () =
  let p = Core.Effective_rank.energy_profile [| 3.0; 1.0 |] in
  check_close "first" 0.75 p.(0);
  check_close "last" 1.0 p.(1);
  let n = Core.Effective_rank.normalized_spectrum [| 3.0; 1.0 |] in
  check_close "normalized head" 0.75 n.(0)

(* ------------------------------------------------------------------ *)
(* Subset selection (Algorithm 2) *)

let test_subset_select_distinct_sorted () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.pool in
  let idx = Core.Subset_select.rows a ~r:10 in
  Alcotest.(check int) "10 rows" 10 (Array.length idx);
  Array.iteri
    (fun k i ->
      if k > 0 && idx.(k - 1) >= i then Alcotest.fail "indices not sorted/distinct")
    idx

let test_subset_select_rows_independent () =
  (* the selected rows must be linearly independent when r <= rank *)
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.pool in
  let svd = Linalg.Svd.factor a in
  let rank = Linalg.Svd.rank svd in
  let r = min rank 12 in
  let idx = Core.Subset_select.rows_from_svd svd ~r in
  let sub = Linalg.Mat.select_rows a idx in
  Alcotest.(check int) "full row rank" r (Linalg.Rank.of_mat sub)

let test_subset_select_range_check () =
  let a = Linalg.Mat.identity 4 in
  Alcotest.(check bool) "r=0 rejected" true
    (match Core.Subset_select.rows a ~r:0 with
     | (_ : int array) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Predictor (Theorem 2) *)

(* A tiny analytic case: three "paths" over two variables where path 3
   is exactly path1 + path2. Measuring rows {0,1} predicts row 2 with
   zero error. *)
let tiny_a () =
  Linalg.Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |]

let test_predictor_exact_dependency () =
  let a = tiny_a () in
  let mu = [| 10.0; 20.0; 30.0 |] in
  let p = Core.Predictor.build ~a ~mu ~rep:[| 0; 1 |] in
  let sig_err = Core.Predictor.error_sigmas p in
  check_close ~tol:1e-10 "zero analytic error" 0.0 sig_err.(0);
  (* measured delays for x = (0.5, -0.2): d0 = 10.5, d1 = 19.8 -> d2 = 30.3 *)
  let pred = Core.Predictor.predict p ~measured:[| 10.5; 19.8 |] in
  check_close ~tol:1e-9 "exact prediction" 30.3 pred.(0)

let test_predictor_partial_information () =
  (* measuring only row 0 of the tiny system leaves variance of x2 *)
  let a = tiny_a () in
  let mu = [| 10.0; 20.0; 30.0 |] in
  let p = Core.Predictor.build ~a ~mu ~rep:[| 0 |] in
  let sig_err = Core.Predictor.error_sigmas p in
  (* remaining rows are 1:(0,1) and 2:(1,1); predictor from row 0 can
     cancel the x1 part of row 2 but never x2 *)
  check_close ~tol:1e-9 "row 1 irreducible sigma" 1.0 sig_err.(0);
  check_close ~tol:1e-9 "row 2 residual sigma" 1.0 sig_err.(1)

let test_predictor_error_matches_mc () =
  (* the analytic per-path error std must match Monte Carlo *)
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let p = sel.Core.Select.predictor in
  let mc = Timing.Monte_carlo.sample (Rng.create 33) setup.pool ~n:3000 in
  let d = Timing.Monte_carlo.path_delays mc in
  let rep = Core.Predictor.rep_indices p in
  let rem = Core.Predictor.rem_indices p in
  let pred = Core.Predictor.predict_all p ~measured:(Linalg.Mat.select_cols d rep) in
  let truth = Linalg.Mat.select_cols d rem in
  let sig_model = Core.Predictor.error_sigmas p in
  (* pick the remaining path with the largest modeled error *)
  let j = Linalg.Vec.argmax sig_model in
  let errs =
    Array.init 3000 (fun i -> Linalg.Mat.get pred i j -. Linalg.Mat.get truth i j)
  in
  let sd = Stats.Descriptive.stddev errs in
  if Float.abs (sd -. sig_model.(j)) > 0.12 *. Float.max 1e-9 sig_model.(j) then
    Alcotest.failf "MC error std %.4f vs model %.4f" sd sig_model.(j);
  check_close ~tol:(5.0 *. sig_model.(j) /. sqrt 3000.0) "error is zero-mean" 0.0
    (Stats.Descriptive.mean errs)

let test_predictor_validation () =
  let a = tiny_a () in
  let mu = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "empty rep rejected" true
    (match Core.Predictor.build ~a ~mu ~rep:[||] with
     | (_ : Core.Predictor.t) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unsorted rep rejected" true
    (match Core.Predictor.build ~a ~mu ~rep:[| 1; 0 |] with
     | (_ : Core.Predictor.t) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Selection (Algorithm 1) *)

let test_exact_selection_zero_error () =
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.exact_selection setup in
  Alcotest.(check int) "r = rank" sel.Core.Select.rank (Array.length sel.Core.Select.indices);
  Alcotest.(check bool) "analytic error ~ 0" true (sel.Core.Select.eps_r < 1e-6)

let test_approximate_meets_tolerance () =
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  Alcotest.(check bool) "eps_r <= eps" true (sel.Core.Select.eps_r <= 0.05);
  Alcotest.(check bool) "fewer than exact" true
    (Array.length sel.Core.Select.indices <= sel.Core.Select.rank)

let test_linear_and_bisection_agree () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.pool in
  let mu = Timing.Paths.mu_paths setup.pool in
  let lin =
    Core.Select.approximate ~schedule:Core.Select.Linear ~a ~mu ~eps:0.05
      ~t_cons:setup.t_cons ()
  in
  let bis =
    Core.Select.approximate ~schedule:Core.Select.Bisection ~a ~mu ~eps:0.05
      ~t_cons:setup.t_cons ()
  in
  let nl = Array.length lin.Core.Select.indices in
  let nb = Array.length bis.Core.Select.indices in
  if abs (nl - nb) > 1 then Alcotest.failf "schedules disagree: linear %d, bisection %d" nl nb;
  Alcotest.(check bool) "bisection cheaper" true
    (bis.Core.Select.evaluations <= lin.Core.Select.evaluations)

let test_tighter_eps_needs_more_paths () =
  let setup = Lazy.force pipeline in
  let loose = Core.Pipeline.approximate_selection setup ~eps:0.10 in
  let tight = Core.Pipeline.approximate_selection setup ~eps:0.01 in
  Alcotest.(check bool) "monotone in eps" true
    (Array.length tight.Core.Select.indices >= Array.length loose.Core.Select.indices)

let test_mc_error_within_guardband () =
  (* the MC max relative error must respect the analytic bound:
     e1 <= eps (the paper's Table 1 relationship e1 < eps) *)
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let m = Core.Pipeline.evaluate_selection ~mc_samples:2000 setup sel in
  (* relative errors are vs d_true ~ T, so eps_r (vs T_cons) bounds them
     only loosely; allow the bound with 30% slack *)
  Alcotest.(check bool) "e1 below tolerance" true (m.Core.Evaluate.e1 <= 0.05 *. 1.3);
  Alcotest.(check bool) "e2 < e1" true (m.Core.Evaluate.e2 <= m.Core.Evaluate.e1)

let test_select_with_size () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.pool in
  let mu = Timing.Paths.mu_paths setup.pool in
  let s5 = Core.Select.select_with_size ~a ~mu ~r:5 () in
  Alcotest.(check int) "exactly 5" 5 (Array.length s5.Core.Select.indices)

(* ------------------------------------------------------------------ *)
(* Figure 1 (the motivating example) *)

let figure1_pool () =
  let pi i = Circuit.Netlist.Pi i in
  let gout g = Circuit.Netlist.Gate_out g in
  let inv = Circuit.Cell.Inv in
  let nl =
    Circuit.Netlist.build ~name:"fig1" ~num_inputs:2
      ~gates:
        [
          ("G1", inv, [| pi 0 |], (0.1, 0.3));
          ("G2", inv, [| pi 1 |], (0.1, 0.7));
          ("G3", inv, [| gout 0 |], (0.3, 0.3));
          ("G4", inv, [| gout 1 |], (0.3, 0.7));
          ("G5", Circuit.Cell.Nand2, [| gout 2; gout 3 |], (0.5, 0.5));
          ("G6", inv, [| gout 4 |], (0.7, 0.7));
          ("G7", inv, [| gout 4 |], (0.7, 0.3));
          ("G8", inv, [| gout 5 |], (0.9, 0.7));
          ("G9", inv, [| gout 6 |], (0.9, 0.3));
        ]
      ~outputs:[ gout 7; gout 8 ]
  in
  let dm = Timing.Delay_model.build nl (Timing.Variation.make_model ~levels:3 ()) in
  let r = Timing.Path_extract.extract dm ~t_cons:1.0 ~yield_threshold:0.9999 in
  Timing.Paths.build dm r.Timing.Path_extract.paths

let test_figure1_three_paths_suffice () =
  let pool = figure1_pool () in
  Alcotest.(check int) "4 target paths" 4 (Timing.Paths.num_paths pool);
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  let sel = Core.Select.exact ~a ~mu () in
  Alcotest.(check int) "3 representative paths" 3 (Array.length sel.Core.Select.indices);
  Alcotest.(check bool) "zero error" true (sel.Core.Select.eps_r < 1e-6)

let test_figure1_prediction_identity () =
  (* d_p1 = d_p2 - d_p3 + d_p4 must hold on every die sample *)
  let pool = figure1_pool () in
  let mc = Timing.Monte_carlo.sample (Rng.create 77) pool ~n:200 in
  let d = Timing.Monte_carlo.path_delays mc in
  let sel = Core.Select.exact ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) () in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let rem = Core.Predictor.rem_indices p in
  Alcotest.(check int) "one remaining path" 1 (Array.length rem);
  let pred = Core.Predictor.predict_all p ~measured:(Linalg.Mat.select_cols d rep) in
  for k = 0 to 199 do
    check_close ~tol:1e-8 "die-exact prediction"
      (Linalg.Mat.get d k rem.(0)) (Linalg.Mat.get pred k 0)
  done

(* ------------------------------------------------------------------ *)
(* Hybrid (Algorithm 3) *)

let test_hybrid_reduces_measurements () =
  let setup = Lazy.force pipeline in
  let h = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  let exact = Core.Pipeline.exact_selection setup in
  Alcotest.(check bool) "feasible" true h.Core.Hybrid.feasible;
  Alcotest.(check bool) "fewer measurements than exact" true
    (Core.Hybrid.total_measurements h < Array.length exact.Core.Select.indices)

let test_hybrid_unmeasured_paths_within_eps () =
  let setup = Lazy.force pipeline in
  let h = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  Array.iteri
    (fun i wc ->
      let measured = Array.mem i h.Core.Hybrid.path_indices in
      if (not measured) && wc > 0.08 +. 1e-9 then
        Alcotest.failf "path %d worst-case %.4f above eps" i wc)
    h.Core.Hybrid.per_path_wc

let test_hybrid_mc_accuracy () =
  let setup = Lazy.force pipeline in
  let h = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  let m = Core.Pipeline.evaluate_hybrid ~mc_samples:1500 setup h in
  Alcotest.(check bool) "e1 below eps with slack" true (m.Core.Evaluate.e1 <= 0.08 *. 1.3)

let test_hybrid_segment_indices_valid () =
  let setup = Lazy.force pipeline in
  let h = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  let n_s = Timing.Paths.num_segments setup.pool in
  Array.iter
    (fun s -> if s < 0 || s >= n_s then Alcotest.failf "segment id %d out of range" s)
    h.Core.Hybrid.segment_indices

(* ------------------------------------------------------------------ *)
(* Guard band *)

let test_guardband_flag_logic () =
  Alcotest.(check bool) "within band flagged" true
    (Core.Guardband.flagged ~predicted:9.6 ~eps:0.05 ~t_cons:10.0);
  Alcotest.(check bool) "far below not flagged" false
    (Core.Guardband.flagged ~predicted:9.0 ~eps:0.05 ~t_cons:10.0);
  Alcotest.(check bool) "above always flagged" true
    (Core.Guardband.flagged ~predicted:10.5 ~eps:0.0 ~t_cons:10.0)

let test_guardband_no_misses_with_wc_band () =
  (* with the analytic worst-case band, misses are bounded by the kappa
     tail mass (0.13% per check for kappa = 3) *)
  let setup = Lazy.force pipeline in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let r = Core.Pipeline.guardband_report ~mc_samples:1000 setup sel in
  Alcotest.(check bool) "some failures occur in fixture" true (r.true_failures > 0);
  let miss_rate = float_of_int r.missed /. float_of_int (max 1 r.true_failures) in
  Alcotest.(check bool) "miss rate below 1%" true (miss_rate < 0.01);
  Alcotest.(check bool) "rates consistent" true
    (r.detected + r.missed = r.true_failures)

let test_guardband_analyze_validation () =
  let m = Linalg.Mat.create 2 2 in
  Alcotest.(check bool) "eps >= 1 rejected" true
    (match Core.Guardband.analyze ~truth:m ~predicted:m ~eps:[| 0.5; 1.0 |] ~t_cons:1.0 with
     | (_ : Core.Guardband.report) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Evaluate *)

let test_evaluate_perfect_prediction () =
  let d = Linalg.Mat.init 10 3 (fun i j -> 100.0 +. float_of_int ((i * 3) + j)) in
  let m = Core.Evaluate.of_predictions ~truth:d ~predicted:d in
  check_close "e1 = 0" 0.0 m.Core.Evaluate.e1;
  check_close "e2 = 0" 0.0 m.Core.Evaluate.e2

let test_evaluate_known_error () =
  let truth = Linalg.Mat.init 4 1 (fun _ _ -> 100.0) in
  let predicted = Linalg.Mat.init 4 1 (fun i _ -> if i = 0 then 110.0 else 100.0) in
  let m = Core.Evaluate.of_predictions ~truth ~predicted in
  check_close "eps_max = 10%" 0.10 m.Core.Evaluate.eps_max.(0);
  check_close "eps_avg = 2.5%" 0.025 m.Core.Evaluate.eps_avg.(0)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_setup_consistent () =
  let setup = Lazy.force pipeline in
  Alcotest.(check bool) "yield in (0,1]" true
    (setup.Core.Pipeline.circuit_yield > 0.0 && setup.Core.Pipeline.circuit_yield <= 1.0);
  Alcotest.(check bool) "threshold from yield" true
    (setup.Core.Pipeline.yield_threshold > 0.99);
  Alcotest.(check bool) "pool non-empty" true (Timing.Paths.num_paths setup.Core.Pipeline.pool > 0)

let test_pipeline_relaxed_constraint_extracts_more () =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 150; num_inputs = 14;
        num_outputs = 12; depth = 10; seed = 8 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let tight = Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:200 ~seed:21 () in
  let relaxed =
    Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:200 ~seed:21
      ~t_cons_scale:0.95 ()
  in
  (* a tighter constraint (smaller T) makes more paths critical *)
  Alcotest.(check bool) "tighter T, more paths" true
    (Timing.Paths.num_paths relaxed.Core.Pipeline.pool
     >= Timing.Paths.num_paths tight.Core.Pipeline.pool)

let prop_subset_selection_never_degenerate =
  QCheck.Test.make ~count:10 ~name:"selected predictor never exceeds rank error bound"
    QCheck.(int_range 2 12)
    (fun r ->
      let setup = Lazy.force pipeline in
      let a = Timing.Paths.a_mat setup.pool in
      let mu = Timing.Paths.mu_paths setup.pool in
      let sel = Core.Select.select_with_size ~a ~mu ~r () in
      Array.length sel.Core.Select.indices = r && sel.Core.Select.eps_r >= 0.0)

let unit_tests =
  [
    ("effective rank: known spectrum", test_effective_rank_known);
    ("effective rank: bounds", test_effective_rank_bounds);
    ("effective rank: monotone in eta", test_effective_rank_monotone_in_eta);
    ("effective rank: <= rank on real A", test_effective_rank_le_rank);
    ("effective rank: validation", test_effective_rank_validation);
    ("effective rank: energy profile", test_energy_profile);
    ("algo2: indices sorted distinct", test_subset_select_distinct_sorted);
    ("algo2: selected rows independent", test_subset_select_rows_independent);
    ("algo2: range check", test_subset_select_range_check);
    ("thm2: exact dependency", test_predictor_exact_dependency);
    ("thm2: partial information", test_predictor_partial_information);
    ("thm2: analytic error matches MC", test_predictor_error_matches_mc);
    ("thm2: validation", test_predictor_validation);
    ("algo1: exact selection zero error", test_exact_selection_zero_error);
    ("algo1: tolerance met", test_approximate_meets_tolerance);
    ("algo1: linear/bisection agree (E5)", test_linear_and_bisection_agree);
    ("algo1: monotone in eps", test_tighter_eps_needs_more_paths);
    ("algo1: MC error within bound", test_mc_error_within_guardband);
    ("algo1: fixed size", test_select_with_size);
    ("figure 1: three paths suffice", test_figure1_three_paths_suffice);
    ("figure 1: exact prediction identity", test_figure1_prediction_identity);
    ("algo3: fewer measurements than exact", test_hybrid_reduces_measurements);
    ("algo3: unmeasured paths within eps", test_hybrid_unmeasured_paths_within_eps);
    ("algo3: MC accuracy", test_hybrid_mc_accuracy);
    ("algo3: segment indices valid", test_hybrid_segment_indices_valid);
    ("guardband: flag logic", test_guardband_flag_logic);
    ("guardband: miss rate bounded", test_guardband_no_misses_with_wc_band);
    ("guardband: validation", test_guardband_analyze_validation);
    ("evaluate: perfect prediction", test_evaluate_perfect_prediction);
    ("evaluate: known error", test_evaluate_known_error);
    ("pipeline: setup consistent", test_pipeline_setup_consistent);
    ("pipeline: tighter constraint, more paths", test_pipeline_relaxed_constraint_extracts_more);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_subset_selection_never_degenerate ]

let suites =
  [
    ( "core",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
