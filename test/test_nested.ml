(* Tests for the nested (incremental) subset selection. *)

open Helpers

let test_nested_order_is_permutation_prefix () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let svd = Linalg.Svd.factor a in
  let order = Core.Subset_select.nested_rows svd in
  let n, _ = Linalg.Mat.dims a in
  Alcotest.(check int) "order covers all rows" n (Array.length order);
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "a permutation" (Array.init n (fun i -> i)) sorted

let test_nested_prefixes_independent () =
  (* each prefix up to rank picks rows that are independent as members
     of the left singular basis (the space the pivoting works in) *)
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let svd = Linalg.Svd.factor a in
  let rank = Linalg.Svd.rank svd in
  let u_rank = Linalg.Mat.sub_left_cols svd.u rank in
  let order = Core.Subset_select.nested_rows svd in
  List.iter
    (fun r ->
      let r = min r rank in
      let prefix = Array.sub order 0 r in
      let sub = Linalg.Mat.select_rows u_rank prefix in
      Alcotest.(check int) (Printf.sprintf "prefix %d independent" r) r
        (Linalg.Rank.of_mat sub))
    [ 2; 5; 10; 20 ]

let test_nested_meets_tolerance () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let sel =
    Core.Select.approximate_nested ~a ~mu ~eps:0.05 ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  Alcotest.(check bool) "tolerance met" true (sel.Core.Select.eps_r <= 0.05)

let test_nested_close_to_repivot () =
  let setup = Lazy.force pipeline in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let re = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons () in
  let ne = Core.Select.approximate_nested ~a ~mu ~eps:0.05 ~t_cons () in
  let nr = Array.length re.Core.Select.indices in
  let nn = Array.length ne.Core.Select.indices in
  if nn > (2 * nr) + 3 then
    Alcotest.failf "nested selection much larger: %d vs %d" nn nr

let unit_tests =
  [
    ("nested: pivot order is a permutation", test_nested_order_is_permutation_prefix);
    ("nested: prefixes independent", test_nested_prefixes_independent);
    ("nested: meets tolerance", test_nested_meets_tolerance);
    ("nested: close to re-pivoting", test_nested_close_to_repivot);
  ]

let suites =
  [
    ( "nested-select",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
