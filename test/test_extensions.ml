(* Tests for the extension modules: block-based SSTA, clustered
   selection, and post-silicon diagnosis. *)

open Helpers

let fixture =
  lazy
    (let setup = Lazy.force pipeline in
     (setup.Core.Pipeline.dm, setup))

(* ------------------------------------------------------------------ *)
(* SSTA *)

let test_ssta_canonical_sigma () =
  let c = { Timing.Ssta.mean = 1.0; coeffs = [| 3.0; 4.0 |]; residual = 0.0 } in
  check_close "sigma from coeffs" 5.0 (Timing.Ssta.sigma c);
  let c2 = { c with residual = 12.0 } in
  check_close "sigma with residual" 13.0 (Timing.Ssta.sigma c2)

let test_ssta_add_delay () =
  let base = { Timing.Ssta.mean = 10.0; coeffs = [| 1.0 |]; residual = 3.0 } in
  let out = Timing.Ssta.add_delay base ~mean:5.0 ~coeffs:[| 2.0 |] ~residual:4.0 in
  check_close "mean" 15.0 out.Timing.Ssta.mean;
  check_close "coeff" 3.0 out.Timing.Ssta.coeffs.(0);
  check_close "residual quadrature" 5.0 out.Timing.Ssta.residual

let test_clark_max_dominance () =
  (* when a strictly dominates b, max ~= a *)
  let a = { Timing.Ssta.mean = 100.0; coeffs = [| 1.0 |]; residual = 1.0 } in
  let b = { Timing.Ssta.mean = 10.0; coeffs = [| 1.0 |]; residual = 1.0 } in
  let m = Timing.Ssta.clark_max a b in
  check_close ~tol:1e-6 "mean = dominant mean" 100.0 m.Timing.Ssta.mean

let test_clark_max_identical () =
  (* fully-correlated (residual-free) identical forms: max(a,a) = a.
     Residual parts of two different forms are independent by the
     canonical model's convention, so only the coeff part counts as
     shared. *)
  let a = { Timing.Ssta.mean = 50.0; coeffs = [| 2.0; 1.0 |]; residual = 0.0 } in
  let m = Timing.Ssta.clark_max a a in
  check_close "identical forms" 50.0 m.Timing.Ssta.mean;
  check_close "sigma preserved" (Timing.Ssta.sigma a) (Timing.Ssta.sigma m)

let test_clark_max_mean_bounds () =
  (* E[max(a,b)] >= max(E a, E b), and for independent equal forms the
     exact answer is mu + sigma/sqrt(pi) *)
  let a = { Timing.Ssta.mean = 0.0; coeffs = [| 0.0 |]; residual = 1.0 } in
  let b = { Timing.Ssta.mean = 0.0; coeffs = [| 0.0 |]; residual = 1.0 } in
  let m = Timing.Ssta.clark_max a b in
  check_close ~tol:1e-9 "E max of two iid N(0,1)" (1.0 /. sqrt Float.pi)
    m.Timing.Ssta.mean

let test_ssta_matches_monte_carlo () =
  let dm, _ = Lazy.force fixture in
  let r = Timing.Ssta.analyze dm in
  let mu_ssta = r.Timing.Ssta.circuit_delay.Timing.Ssta.mean in
  let sd_ssta = Timing.Ssta.sigma r.Timing.Ssta.circuit_delay in
  (* MC reference *)
  let t50 = Timing.Ssta.quantile r 0.5 in
  let y_mc =
    Timing.Monte_carlo.circuit_yield dm ~t_cons:t50 ~rng:(Rng.create 5) ~samples:2000
  in
  (* the SSTA median should split the MC distribution roughly in half *)
  if y_mc < 0.40 || y_mc > 0.62 then
    Alcotest.failf "SSTA median off: MC yield at SSTA t50 = %.3f" y_mc;
  (* +3 sigma should cover nearly everything *)
  let y3 =
    Timing.Monte_carlo.circuit_yield dm
      ~t_cons:(mu_ssta +. (3.0 *. sd_ssta))
      ~rng:(Rng.create 6) ~samples:2000
  in
  Alcotest.(check bool) "3-sigma covers MC" true (y3 > 0.99)

let test_ssta_yield_monotone () =
  let dm, _ = Lazy.force fixture in
  let r = Timing.Ssta.analyze dm in
  let t = r.Timing.Ssta.circuit_delay.Timing.Ssta.mean in
  Alcotest.(check bool) "monotone yield" true
    (Timing.Ssta.yield_at r (t *. 1.1) > Timing.Ssta.yield_at r (t *. 0.9))

let test_ssta_quantile_inverts_yield () =
  let dm, _ = Lazy.force fixture in
  let r = Timing.Ssta.analyze dm in
  let q = Timing.Ssta.quantile r 0.9 in
  check_close ~tol:1e-9 "yield at quantile" 0.9 (Timing.Ssta.yield_at r q)

let test_ssta_arrival_dominates_nominal () =
  (* the statistical circuit delay mean must be >= the nominal critical
     delay (max of Gaussians is biased upward) *)
  let dm, _ = Lazy.force fixture in
  let r = Timing.Ssta.analyze dm in
  let nominal = Timing.Delay_model.nominal_critical_delay dm in
  Alcotest.(check bool) "mean >= nominal" true
    (r.Timing.Ssta.circuit_delay.Timing.Ssta.mean >= nominal -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Clustered selection *)

let test_kmeans_separates_obvious_clusters () =
  (* rows pointing along two orthogonal directions *)
  let a =
    Linalg.Mat.of_arrays
      [|
        [| 1.0; 0.01 |]; [| 0.9; 0.0 |]; [| 1.1; -0.01 |];
        [| 0.0; 1.0 |]; [| 0.02; 0.8 |]; [| -0.01; 1.2 |];
      |]
  in
  let assign = Core.Cluster.kmeans_rows ~rng:(Rng.create 3) ~k:2 a in
  Alcotest.(check bool) "first three together" true
    (assign.(0) = assign.(1) && assign.(1) = assign.(2));
  Alcotest.(check bool) "last three together" true
    (assign.(3) = assign.(4) && assign.(4) = assign.(5));
  Alcotest.(check bool) "two groups differ" true (assign.(0) <> assign.(3))

let test_kmeans_k_clamped () =
  let a = Linalg.Mat.identity 3 in
  let assign = Core.Cluster.kmeans_rows ~rng:(Rng.create 1) ~k:10 a in
  Alcotest.(check int) "three rows assigned" 3 (Array.length assign)

let test_cluster_select_meets_tolerance () =
  let _, setup = Lazy.force fixture in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let eps = 0.05 in
  let c = Core.Cluster.select ~k:4 ~a ~mu ~eps ~t_cons:setup.Core.Pipeline.t_cons () in
  (* the merged predictor can only be better than the per-cluster ones,
     each of which met eps *)
  Alcotest.(check bool) "merged eps_r within tolerance" true (c.Core.Cluster.eps_r <= eps);
  Alcotest.(check int) "every path assigned" (fst (Linalg.Mat.dims a))
    (Array.length c.Core.Cluster.assignments)

let test_cluster_select_close_to_direct () =
  let _, setup = Lazy.force fixture in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let eps = 0.05 in
  let direct =
    Core.Select.approximate ~a ~mu ~eps ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  let clustered =
    Core.Cluster.select ~k:4 ~a ~mu ~eps ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  let nd = Array.length direct.Core.Select.indices in
  let nc = Array.length clustered.Core.Cluster.indices in
  (* clustering trades some selection size for speed; it must stay within
     a small constant factor (here 6x) of the direct size *)
  Alcotest.(check bool)
    (Printf.sprintf "clustered size %d vs direct %d" nc nd)
    true
    (nc <= max 8 (6 * nd))

let test_cluster_validation () =
  let a = Linalg.Mat.identity 3 in
  Alcotest.(check bool) "k=0 rejected" true
    (match Core.Cluster.select ~k:0 ~a ~mu:[| 1.; 1.; 1. |] ~eps:0.05 ~t_cons:1.0 () with
     | (_ : Core.Cluster.t) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Diagnosis *)

let test_diagnose_estimate_consistent () =
  (* x_hat must reproduce the measured representative delays exactly:
     A_r x_hat = d_r - mu_r *)
  let _, setup = Lazy.force fixture in
  let pool = setup.Core.Pipeline.pool in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let d = Core.Diagnose.build ~pool ~rep:sel.Core.Select.indices in
  let mc = Timing.Monte_carlo.sample (Rng.create 17) pool ~n:1 in
  let delays = Timing.Monte_carlo.path_delays mc in
  let measured = Array.map (fun i -> Linalg.Mat.get delays 0 i) sel.Core.Select.indices in
  let x_hat = Core.Diagnose.estimate_x d ~measured in
  let a_r =
    Linalg.Mat.select_rows (Timing.Paths.a_mat pool) sel.Core.Select.indices
  in
  let mu = Timing.Paths.mu_paths pool in
  let reproduced = Linalg.Mat.apply a_r x_hat in
  Array.iteri
    (fun k i ->
      check_close ~tol:1e-6 "A_r x_hat = d_r - mu_r"
        (measured.(k) -. mu.(i)) reproduced.(k))
    sel.Core.Select.indices

let test_diagnose_detects_d2d_shift () =
  (* fabricate a die whose die-to-die Leff variable is +2 sigma and all
     other variables are nominal; the estimator must attribute a clear
     positive global shift *)
  let _, setup = Lazy.force fixture in
  let pool = setup.Core.Pipeline.pool in
  let sel = Core.Pipeline.exact_selection setup in
  let d = Core.Diagnose.build ~pool ~rep:sel.Core.Select.indices in
  let keys = Timing.Paths.var_keys pool in
  let x = Array.make (Array.length keys) 0.0 in
  Array.iteri
    (fun i k ->
      match k with
      | Timing.Variation.Region { level = 0; _ } -> x.(i) <- 2.0
      | Timing.Variation.Region _ | Timing.Variation.Gate_random _ -> ())
    keys;
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  let delays = Linalg.Vec.add mu (Linalg.Mat.apply a x) in
  let measured = Array.map (fun i -> delays.(i)) sel.Core.Select.indices in
  let shift = Core.Diagnose.die_to_die_shift d ~measured in
  Alcotest.(check bool)
    (Printf.sprintf "global shift %.2f detected" shift)
    true (shift > 1.0)

let test_diagnose_attribution_ranked () =
  let _, setup = Lazy.force fixture in
  let pool = setup.Core.Pipeline.pool in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let d = Core.Diagnose.build ~pool ~rep:sel.Core.Select.indices in
  let mc = Timing.Monte_carlo.sample (Rng.create 23) pool ~n:1 in
  let delays = Timing.Monte_carlo.path_delays mc in
  let measured = Array.map (fun i -> Linalg.Mat.get delays 0 i) sel.Core.Select.indices in
  let att = Core.Diagnose.attribute ~top:5 d ~measured in
  Alcotest.(check int) "five attributions" 5 (List.length att);
  let magnitudes = List.map (fun a -> Float.abs a.Core.Diagnose.z_score) att in
  let rec sorted = function
    | a :: b :: rest -> a >= b -. 1e-12 && sorted (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ranked by magnitude" true (sorted magnitudes)

let test_diagnose_predicted_failures_on_slow_die () =
  (* a +3-sigma global die must flag far more paths than a -3-sigma one *)
  let _, setup = Lazy.force fixture in
  let pool = setup.Core.Pipeline.pool in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let d = Core.Diagnose.build ~pool ~rep:sel.Core.Select.indices in
  let keys = Timing.Paths.var_keys pool in
  let die shift =
    let x = Array.make (Array.length keys) 0.0 in
    Array.iteri
      (fun i k ->
        match k with
        | Timing.Variation.Region { level = 0; _ } -> x.(i) <- shift
        | Timing.Variation.Region _ | Timing.Variation.Gate_random _ -> ())
      keys;
    let a = Timing.Paths.a_mat pool in
    let mu = Timing.Paths.mu_paths pool in
    let delays = Linalg.Vec.add mu (Linalg.Mat.apply a x) in
    Array.map (fun i -> delays.(i)) sel.Core.Select.indices
  in
  let flags shift =
    List.length
      (Core.Diagnose.predicted_failures d ~measured:(die shift)
         ~eps:sel.Core.Select.per_path_eps ~t_cons:setup.Core.Pipeline.t_cons)
  in
  let slow = flags 3.0 and fast = flags (-3.0) in
  Alcotest.(check bool)
    (Printf.sprintf "slow die flags %d > fast die flags %d" slow fast)
    true (slow > fast)

let unit_tests =
  [
    ("ssta: canonical sigma", test_ssta_canonical_sigma);
    ("ssta: add delay", test_ssta_add_delay);
    ("ssta: clark max dominance", test_clark_max_dominance);
    ("ssta: clark max identical forms", test_clark_max_identical);
    ("ssta: clark max iid mean", test_clark_max_mean_bounds);
    ("ssta: matches monte carlo", test_ssta_matches_monte_carlo);
    ("ssta: yield monotone", test_ssta_yield_monotone);
    ("ssta: quantile inverts yield", test_ssta_quantile_inverts_yield);
    ("ssta: mean >= nominal critical", test_ssta_arrival_dominates_nominal);
    ("cluster: kmeans separates clusters", test_kmeans_separates_obvious_clusters);
    ("cluster: k clamped to rows", test_kmeans_k_clamped);
    ("cluster: selection meets tolerance", test_cluster_select_meets_tolerance);
    ("cluster: close to direct selection", test_cluster_select_close_to_direct);
    ("cluster: validation", test_cluster_validation);
    ("diagnose: estimate reproduces measurements", test_diagnose_estimate_consistent);
    ("diagnose: detects die-to-die shift", test_diagnose_detects_d2d_shift);
    ("diagnose: attribution ranked", test_diagnose_attribution_ranked);
    ("diagnose: slow die flags more paths", test_diagnose_predicted_failures_on_slow_die);
  ]

let suites =
  [
    ( "extensions",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
