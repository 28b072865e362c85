(* Tests for the related-work baseline implementations. *)

open Helpers

let score setup predictor =
  let mc = Timing.Monte_carlo.sample (Rng.create 3) setup.Core.Pipeline.pool ~n:1200 in
  Core.Evaluate.predictor_metrics predictor
    ~path_delays:(Timing.Monte_carlo.path_delays mc)

let test_random_selection_valid () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let p = Core.Baselines.random_selection ~rng:(Rng.create 1) ~a ~mu ~r:8 in
  Alcotest.(check int) "eight paths" 8 (Array.length (Core.Predictor.rep_indices p));
  let m = score setup p in
  Alcotest.(check bool) "finite errors" true (Float.is_finite m.Core.Evaluate.e1)

let test_random_selection_validation () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  Alcotest.(check bool) "r = 0 rejected" true
    (match Core.Baselines.random_selection ~rng:(Rng.create 1) ~a ~mu ~r:0 with
     | (_ : Core.Predictor.t) -> false
     | exception Invalid_argument _ -> true)

let test_path_features_sane () =
  let setup = Lazy.force pipeline in
  let pool = setup.Core.Pipeline.pool in
  for i = 0 to min 20 (Timing.Paths.num_paths pool - 1) do
    let f = Core.Baselines.path_features pool i in
    let p = Timing.Paths.path pool i in
    Alcotest.(check int) "length" (Array.length p.Timing.Path_extract.gates)
      (int_of_float f.Core.Baselines.length);
    let mix_sum = Array.fold_left ( +. ) 0.0 f.Core.Baselines.cell_mix in
    if Float.abs (mix_sum -. 1.0) > 1e-9 then
      Alcotest.failf "path %d cell mix sums to %g" i mix_sum
  done

let test_feature_clustering_runs () =
  let setup = Lazy.force pipeline in
  let p =
    Core.Baselines.feature_clustering ~rng:(Rng.create 2)
      ~pool:setup.Core.Pipeline.pool ~r:6
  in
  let n = Array.length (Core.Predictor.rep_indices p) in
  Alcotest.(check bool) "between 1 and 6 medoids" true (n >= 1 && n <= 6)

let test_rcp_single_path () =
  let setup = Lazy.force pipeline in
  let p = Core.Baselines.representative_critical_path ~pool:setup.Core.Pipeline.pool in
  Alcotest.(check int) "one path" 1 (Array.length (Core.Predictor.rep_indices p))

let test_algorithm1_beats_baselines () =
  (* the paper's premise: variational subset selection binds paths
     better than structural features or chance, at the same budget *)
  let setup = Lazy.force pipeline in
  let pool = setup.Core.Pipeline.pool in
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  let algo1 = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let r = max 1 (Array.length algo1.Core.Select.indices) in
  let e1_algo = (score setup algo1.Core.Select.predictor).Core.Evaluate.e1 in
  (* average 3 random draws *)
  let e1_rand =
    List.fold_left
      (fun acc seed ->
        acc
        +. (score setup (Core.Baselines.random_selection ~rng:(Rng.create seed) ~a ~mu ~r))
             .Core.Evaluate.e1)
      0.0 [ 11; 12; 13 ]
    /. 3.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "algo1 %.3f <= random avg %.3f" e1_algo e1_rand)
    true
    (e1_algo <= e1_rand +. 1e-6)

let unit_tests =
  [
    ("baselines: random selection", test_random_selection_valid);
    ("baselines: random validation", test_random_selection_validation);
    ("baselines: path features", test_path_features_sane);
    ("baselines: feature clustering", test_feature_clustering_runs);
    ("baselines: single RCP", test_rcp_single_path);
    ("baselines: algorithm 1 not worse than random", test_algorithm1_beats_baselines);
  ]

let suites =
  [
    ( "baselines",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
