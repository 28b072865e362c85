(* Tests for the rng and stats substrates. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 in
  let b = Rng.create 7 in
  for i = 0 to 99 do
    if Rng.float a <> Rng.float b then Alcotest.failf "streams diverge at %d" i
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xa = Array.init 8 (fun _ -> Rng.float a) in
  let xb = Array.init 8 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different seeds differ" false (xa = xb)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "uniform out of range: %g" x
  done

let test_rng_int_range () =
  let r = Rng.create 5 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Rng.int r 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 8_000 || c > 12_000 then
        Alcotest.failf "bucket %d count %d far from uniform" i c)
    counts

let test_rng_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 200_000 in
  let xs = Rng.gaussian_vector r n in
  check_close ~tol:0.02 "mean ~ 0" 0.0 (Stats.Descriptive.mean xs);
  check_close ~tol:0.02 "var ~ 1" 1.0 (Stats.Descriptive.variance xs)

let test_rng_gaussian_tail () =
  let r = Rng.create 13 in
  let n = 100_000 in
  let beyond = ref 0 in
  for _ = 1 to n do
    if Float.abs (Rng.gaussian r) > 1.959964 then incr beyond
  done;
  let frac = float_of_int !beyond /. float_of_int n in
  check_close ~tol:0.01 "5% beyond 1.96 sigma" 0.05 frac

let test_rng_split_independence () =
  let r = Rng.create 17 in
  let r1 = Rng.split r in
  let r2 = Rng.split r in
  let x1 = Array.init 1000 (fun _ -> Rng.gaussian r1) in
  let x2 = Array.init 1000 (fun _ -> Rng.gaussian r2) in
  let corr = Stats.Descriptive.correlation x1 x2 in
  if Float.abs corr > 0.1 then Alcotest.failf "split streams correlated: %g" corr

let test_rng_shuffle_permutes () =
  let r = Rng.create 23 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Normal distribution *)

let test_normal_cdf_known () =
  check_close ~tol:1e-7 "cdf 0" 0.5 (Stats.Normal.cdf 0.0);
  check_close ~tol:1e-6 "cdf 1.96" 0.975 (Stats.Normal.cdf 1.959964);
  check_close ~tol:1e-7 "cdf -3" 0.00134990 (Stats.Normal.cdf (-3.0));
  check_close ~tol:1e-9 "symmetry" 1.0 (Stats.Normal.cdf 1.3 +. Stats.Normal.cdf (-1.3))

let test_normal_quantile_inverse () =
  let ps = [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ] in
  List.iter
    (fun p ->
      let x = Stats.Normal.quantile p in
      check_close ~tol:1e-9 (Printf.sprintf "cdf(quantile %g)" p) p (Stats.Normal.cdf x))
    ps

let test_normal_quantile_known () =
  check_close ~tol:1e-6 "median" 0.0 (Stats.Normal.quantile 0.5);
  check_close ~tol:1e-5 "97.5%" 1.959964 (Stats.Normal.quantile 0.975)

let test_normal_quantile_domain () =
  Alcotest.check_raises "p=0"
    (Invalid_argument "Normal.quantile: p outside (0,1)") (fun () ->
      ignore (Stats.Normal.quantile 0.0))

let test_normal_pdf_integrates () =
  (* trapezoid over [-8, 8] *)
  let n = 4000 in
  let h = 16.0 /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n do
    let x = -8.0 +. (float_of_int i *. h) in
    let w = if i = 0 || i = n then 0.5 else 1.0 in
    acc := !acc +. (w *. Stats.Normal.pdf x)
  done;
  check_close ~tol:1e-9 "integral 1" 1.0 (!acc *. h)

let test_gaussian_worst_case () =
  let d = { Stats.Normal.mean = 1.0; std = 0.0 } in
  check_close "degenerate cdf below" 0.0 (Stats.Normal.cdf_of d 0.5);
  check_close "degenerate cdf above" 1.0 (Stats.Normal.cdf_of d 1.5)

let test_gaussian_yield () =
  let g = { Stats.Normal.mean = 10.0; std = 2.0 } in
  check_close ~tol:1e-7 "yield at mean" 0.5 (Stats.Normal.cdf_of g 10.0);
  check_close ~tol:1e-6 "yield +2sigma" 0.97725 (Stats.Normal.cdf_of g 14.0)

(* ------------------------------------------------------------------ *)
(* Descriptive *)

let test_descriptive_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 (Stats.Descriptive.mean xs);
  check_close ~tol:1e-9 "variance" (32.0 /. 7.0) (Stats.Descriptive.variance xs)

let test_descriptive_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "q0" 1.0 (Stats.Descriptive.quantile xs 0.0);
  check_close "q1" 4.0 (Stats.Descriptive.quantile xs 1.0);
  check_close "median" 2.5 (Stats.Descriptive.quantile xs 0.5);
  (* input untouched *)
  Alcotest.(check (array (float 0.0))) "input preserved" [| 1.0; 2.0; 3.0; 4.0 |] xs

let test_descriptive_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_close ~tol:1e-12 "perfect corr" 1.0 (Stats.Descriptive.correlation xs ys);
  let zs = [| -2.0; -4.0; -6.0; -8.0 |] in
  check_close ~tol:1e-12 "anti corr" (-1.0) (Stats.Descriptive.correlation xs zs);
  let c = [| 5.0; 5.0; 5.0; 5.0 |] in
  check_close "constant corr" 0.0 (Stats.Descriptive.correlation xs c)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"normal quantile is monotone"
    QCheck.(pair (float_range 0.01 0.99) (float_range 0.001 0.009))
    (fun (p, dp) -> Stats.Normal.quantile (p +. dp) > Stats.Normal.quantile p)

let prop_cdf_in_unit =
  QCheck.Test.make ~count:200 ~name:"normal cdf in [0,1]"
    QCheck.(float_range (-40.0) 40.0)
    (fun x ->
      let c = Stats.Normal.cdf x in
      c >= 0.0 && c <= 1.0)

let prop_empirical_quantile_bounds =
  QCheck.Test.make ~count:100 ~name:"empirical quantile within data range"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 50) (float_range (-5.) 5.))
              (float_range 0.0 1.0))
    (fun (xs, p) ->
      let q = Stats.Descriptive.quantile xs p in
      let lo = Array.fold_left Float.min xs.(0) xs in
      let hi = Array.fold_left Float.max xs.(0) xs in
      q >= lo -. 1e-12 && q <= hi +. 1e-12)

let unit_tests =
  [
    ("rng: determinism", test_rng_determinism);
    ("rng: seed sensitivity", test_rng_seed_sensitivity);
    ("rng: uniform range", test_rng_float_range);
    ("rng: int uniformity", test_rng_int_range);
    ("rng: gaussian moments", test_rng_gaussian_moments);
    ("rng: gaussian tail mass", test_rng_gaussian_tail);
    ("rng: split independence", test_rng_split_independence);
    ("rng: shuffle is a permutation", test_rng_shuffle_permutes);
    ("normal: cdf at known points", test_normal_cdf_known);
    ("normal: quantile inverts cdf", test_normal_quantile_inverse);
    ("normal: quantile known values", test_normal_quantile_known);
    ("normal: quantile domain", test_normal_quantile_domain);
    ("normal: pdf integrates to 1", test_normal_pdf_integrates);
    ("gaussian: worst case + degenerate", test_gaussian_worst_case);
    ("gaussian: yield", test_gaussian_yield);
    ("descriptive: mean/variance", test_descriptive_basic);
    ("descriptive: quantile", test_descriptive_quantile);
    ("descriptive: correlation", test_descriptive_correlation);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_quantile_monotone; prop_cdf_in_unit; prop_empirical_quantile_bounds ]

let suites =
  [
    ( "rng+stats",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
