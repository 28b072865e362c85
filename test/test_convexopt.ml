(* Tests for the convex-optimization substrate. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Prox *)

let test_l1_projection_inside () =
  let v = [| 0.2; -0.1; 0.05 |] in
  let p = Convexopt.Prox.project_l1_ball v 1.0 in
  Alcotest.(check bool) "unchanged inside ball" true (Linalg.Vec.equal v p)

let test_l1_projection_norm () =
  let v = [| 3.0; -2.0; 1.0; 0.5 |] in
  let p = Convexopt.Prox.project_l1_ball v 1.0 in
  check_close ~tol:1e-9 "on the sphere" 1.0 (Linalg.Vec.norm1 p)

let test_l1_projection_is_projection () =
  (* p must be the closest point: moving toward any feasible q cannot
     get closer to v *)
  let v = [| 2.0; -1.5; 0.7; -0.1 |] in
  let r = 1.2 in
  let p = Convexopt.Prox.project_l1_ball v r in
  let d0 = Linalg.Vec.dist2 v p in
  let candidates =
    [ [| r; 0.; 0.; 0. |]; [| 0.; -.r; 0.; 0. |]; [| 0.6; -0.6; 0.; 0. |];
      [| 0.4; -0.4; 0.3; -0.1 |] ]
  in
  List.iter
    (fun q ->
      if Linalg.Vec.norm1 q <= r +. 1e-12 && Linalg.Vec.dist2 v q < d0 -. 1e-9 then
        Alcotest.fail "found a closer feasible point")
    candidates

let test_l1_projection_signs () =
  let v = [| -5.0; 4.0 |] in
  let p = Convexopt.Prox.project_l1_ball v 1.0 in
  Alcotest.(check bool) "signs preserved" true (p.(0) <= 0.0 && p.(1) >= 0.0)

let test_prox_linf_shrinks_max () =
  let v = [| 3.0; 1.0; -0.5 |] in
  let p = Convexopt.Prox.prox_linf v 1.0 in
  (* prox of the max-norm pulls the largest entries down *)
  Alcotest.(check bool) "max reduced" true (Linalg.Vec.norm_inf p < 3.0);
  Alcotest.(check bool) "small entries nearly intact" true (Float.abs (p.(2) +. 0.5) < 1e-9)

let test_prox_linf_zero_tau () =
  let v = [| 1.0; -2.0 |] in
  let p = Convexopt.Prox.prox_linf v 0.0 in
  Alcotest.(check bool) "identity at tau=0" true (Linalg.Vec.equal v p)

let test_prox_linf_kills_small_vectors () =
  (* for tau >= ||v||_1, the prox of ||.||_inf is 0 *)
  let v = [| 0.3; -0.2 |] in
  let p = Convexopt.Prox.prox_linf v 1.0 in
  check_close ~tol:1e-12 "zeroed" 0.0 (Linalg.Vec.norm_inf p)

let test_prox_linf_optimality () =
  (* p = prox(v) minimizes tau*||u||_inf + 1/2||u-v||^2; check against
     random perturbations *)
  let v = [| 2.0; -1.0; 0.8; 0.1 |] in
  let tau = 0.7 in
  let p = Convexopt.Prox.prox_linf v tau in
  let f u = (tau *. Linalg.Vec.norm_inf u) +. (0.5 *. (Linalg.Vec.dist2 u v ** 2.0)) in
  let fp = f p in
  for k = 0 to 40 do
    let u =
      Array.mapi
        (fun i x -> x +. (0.05 *. sin (float_of_int ((7 * k) + (3 * i)))))
        p
    in
    if f u < fp -. 1e-9 then Alcotest.failf "perturbation %d beats prox" k
  done

let test_soft_threshold () =
  check_close "shrinks" 1.0 (Convexopt.Prox.soft_threshold 1.5 0.5);
  check_close "kills" 0.0 (Convexopt.Prox.soft_threshold 0.3 0.5);
  check_close "negative" (-1.0) (Convexopt.Prox.soft_threshold (-1.5) 0.5)

(* ------------------------------------------------------------------ *)
(* FISTA *)

let test_fista_quadratic () =
  (* min 1/2 || x - c ||^2 with no regularizer: solution is c *)
  let c = Linalg.Mat.of_arrays [| [| 1.0; -2.0 |]; [| 0.5; 3.0 |] |] in
  let report =
    Convexopt.Fista.solve
      {
        Convexopt.Fista.grad_f = (fun x -> Linalg.Mat.sub x c);
        prox_g = (fun v _ -> v);
        objective = (fun x -> 0.5 *. (Linalg.Mat.frobenius (Linalg.Mat.sub x c) ** 2.0));
        lipschitz = 1.0;
      }
      ~init:(Linalg.Mat.create 2 2)
  in
  Alcotest.(check bool) "converged" true report.converged;
  Alcotest.(check bool) "solution = c" true
    (Linalg.Mat.equal ~tol:1e-5 c report.solution)

let test_fista_lasso_sparsity () =
  (* min 1/2||x - c||^2 + lambda ||x||_1 has the soft-threshold solution *)
  let c = Linalg.Mat.of_arrays [| [| 2.0; 0.3; -1.0; 0.05 |] |] in
  let lambda = 0.5 in
  let prox v step =
    Linalg.Mat.map (fun x -> Convexopt.Prox.soft_threshold x (lambda *. step)) v
  in
  let report =
    Convexopt.Fista.solve
      {
        Convexopt.Fista.grad_f = (fun x -> Linalg.Mat.sub x c);
        prox_g = prox;
        objective =
          (fun x ->
            (0.5 *. (Linalg.Mat.frobenius (Linalg.Mat.sub x c) ** 2.0))
            +. (lambda
                *. Array.fold_left (fun a v -> a +. Float.abs v) 0.0
                     (Linalg.Mat.row x 0)));
        lipschitz = 1.0;
      }
      ~init:(Linalg.Mat.create 1 4)
  in
  let x = Linalg.Mat.row report.solution 0 in
  check_close ~tol:1e-5 "x0" 1.5 x.(0);
  check_close ~tol:1e-5 "x1 zeroed" 0.0 x.(1);
  check_close ~tol:1e-5 "x2" (-0.5) x.(2);
  check_close ~tol:1e-5 "x3 zeroed" 0.0 x.(3)

let test_fista_objective_decreases () =
  let c = Linalg.Mat.init 3 5 (fun i j -> sin (float_of_int ((3 * i) + j))) in
  let obj x = 0.5 *. (Linalg.Mat.frobenius (Linalg.Mat.sub x c) ** 2.0) in
  let report =
    Convexopt.Fista.solve
      ~stop:{ Convexopt.Fista.max_iter = 10; rel_tol = 0.0 }
      {
        Convexopt.Fista.grad_f = (fun x -> Linalg.Mat.sub x c);
        prox_g = (fun v _ -> v);
        objective = obj;
        lipschitz = 1.0;
      }
      ~init:(Linalg.Mat.create 3 5)
  in
  Alcotest.(check bool) "objective below start" true
    (report.objective_value < obj (Linalg.Mat.create 3 5))

let test_power_iteration () =
  let m = Linalg.Mat.of_arrays [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  (* eigenvalues (7 +- sqrt 5)/2 -> max ~ 4.618 *)
  check_close ~tol:1e-6 "dominant eigenvalue" ((7.0 +. sqrt 5.0) /. 2.0)
    (Convexopt.Fista.power_iteration_norm m)

(* ------------------------------------------------------------------ *)
(* Group selection *)

(* Synthetic instance with a known sparse answer: 6 segments, but the
   4 rows of g1 only involve segments {0, 2, 5}. *)
let sparse_instance () =
  let n_s = 6 and m = 8 in
  let sigma =
    Linalg.Mat.init n_s m (fun s j ->
        if j = s then 1.0 else 0.2 *. sin (float_of_int ((s * 3) + j)))
  in
  let g1 =
    Linalg.Mat.of_arrays
      [|
        [| 1.; 0.; 0.; 0.; 0.; 0. |];
        [| 0.; 0.; 1.; 0.; 0.; 0. |];
        [| 0.; 0.; 0.; 0.; 0.; 1. |];
        [| 1.; 0.; 1.; 0.; 0.; 0. |];
      |]
  in
  (sigma, g1)

let test_group_select_recovers_support () =
  let sigma, g1 = sparse_instance () in
  let bounds = Array.make 4 0.05 in
  let r = Convexopt.Group_select.select ~sigma ~g1 ~bounds ~kappa:3.0 () in
  Alcotest.(check bool) "feasible" true r.feasible;
  Alcotest.(check (array int)) "support {0,2,5}" [| 0; 2; 5 |] r.support;
  Array.iter
    (fun e -> if e > 0.05 then Alcotest.failf "error %g above bound" e)
    r.row_errors

let test_group_select_loose_bounds_sparser () =
  let sigma, g1 = sparse_instance () in
  let tight = Convexopt.Group_select.select ~sigma ~g1 ~bounds:(Array.make 4 0.01)
      ~kappa:3.0 () in
  let loose = Convexopt.Group_select.select ~sigma ~g1 ~bounds:(Array.make 4 10.0)
      ~kappa:3.0 () in
  Alcotest.(check bool) "loose support not larger" true
    (Array.length loose.support <= Array.length tight.support)

let test_group_select_refit_zero_error_on_full_support () =
  let sigma, g1 = sparse_instance () in
  let support = Array.init 6 (fun i -> i) in
  let b = Convexopt.Group_select.refit ~sigma ~g1 ~support in
  let errors = Convexopt.Group_select.row_errors ~sigma ~g1 ~b ~kappa:3.0 in
  Array.iter (fun e -> if e > 1e-7 then Alcotest.failf "nonzero error %g" e) errors

let test_group_select_validation () =
  let sigma, g1 = sparse_instance () in
  Alcotest.(check bool) "negative bound rejected" true
    (match
       Convexopt.Group_select.select ~sigma ~g1 ~bounds:(Array.make 4 (-1.0)) ~kappa:3.0 ()
     with
     | (_ : Convexopt.Group_select.result) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad kappa rejected" true
    (match
       Convexopt.Group_select.select ~sigma ~g1 ~bounds:(Array.make 4 1.0) ~kappa:0.0 ()
     with
     | (_ : Convexopt.Group_select.result) -> false
     | exception Invalid_argument _ -> true)

let prop_l1_projection_feasible =
  QCheck.Test.make ~count:100 ~name:"l1 projection lands in the ball"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 12) (float_range (-5.) 5.))
              (float_range 0.1 3.0))
    (fun (v, r) ->
      let p = Convexopt.Prox.project_l1_ball v r in
      Linalg.Vec.norm1 p <= r +. 1e-9)

let prop_prox_linf_nonexpansive =
  QCheck.Test.make ~count:60 ~name:"prox_linf is non-expansive"
    QCheck.(pair (array_of_size (QCheck.Gen.return 6) (float_range (-3.) 3.))
              (array_of_size (QCheck.Gen.return 6) (float_range (-3.) 3.)))
    (fun (u, v) ->
      let pu = Convexopt.Prox.prox_linf u 0.8 in
      let pv = Convexopt.Prox.prox_linf v 0.8 in
      Linalg.Vec.dist2 pu pv <= Linalg.Vec.dist2 u v +. 1e-9)

let unit_tests =
  [
    ("prox: l1 projection inside ball", test_l1_projection_inside);
    ("prox: l1 projection onto sphere", test_l1_projection_norm);
    ("prox: l1 projection optimality", test_l1_projection_is_projection);
    ("prox: l1 projection sign safety", test_l1_projection_signs);
    ("prox: linf shrinks the max", test_prox_linf_shrinks_max);
    ("prox: linf identity at tau=0", test_prox_linf_zero_tau);
    ("prox: linf kills small vectors", test_prox_linf_kills_small_vectors);
    ("prox: linf optimality", test_prox_linf_optimality);
    ("prox: soft threshold", test_soft_threshold);
    ("fista: unconstrained quadratic", test_fista_quadratic);
    ("fista: lasso soft-threshold solution", test_fista_lasso_sparsity);
    ("fista: objective decreases", test_fista_objective_decreases);
    ("fista: power iteration", test_power_iteration);
    ("group: recovers true support", test_group_select_recovers_support);
    ("group: looser bounds not denser", test_group_select_loose_bounds_sparser);
    ("group: full-support refit is exact", test_group_select_refit_zero_error_on_full_support);
    ("group: input validation", test_group_select_validation);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_l1_projection_feasible; prop_prox_linf_nonexpansive ]

let suites =
  [
    ( "convexopt",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
