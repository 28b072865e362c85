(* Tests for the SDF writer and the multi-corner selection. *)

let netlist () =
  Circuit.Generator.generate { Circuit.Generator.default with num_gates = 60; seed = 33 }

(* ------------------------------------------------------------------ *)
(* SDF *)

let test_sdf_structure () =
  let nl = netlist () in
  let delays = Array.make (Circuit.Netlist.num_gates nl) 5.0 in
  let text = Timing.Sdf.write nl ~delays in
  Alcotest.(check bool) "has version" true
    (String.length text > 0
     && (let rec contains i =
           i + 16 <= String.length text
           && (String.sub text i 16 = "(SDFVERSION \"3.0" || contains (i + 1))
         in
         contains 0))

let test_sdf_rejects_bad_lengths () =
  let nl = netlist () in
  Alcotest.(check bool) "length mismatch" true
    (match Timing.Sdf.write nl ~delays:[| 1.0 |] with
     | (_ : string) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Corners *)

let corners_fixture () =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 120; seed = 51 }
  in
  let mk levels random_boost =
    let model = Timing.Variation.make_model ~levels ~random_boost () in
    let dm = Timing.Delay_model.build nl model in
    let t_cons = Timing.Delay_model.nominal_critical_delay dm in
    let r = Timing.Path_extract.extract dm ~t_cons ~yield_threshold:0.995 in
    (dm, t_cons, r.Timing.Path_extract.paths)
  in
  (* corner A: mild variation; corner B: boosted random (a "cold, fast"
     vs "hot, noisy" pairing). Use the SAME path set so the corner rows
     align: extract at corner A and price those paths at corner B. *)
  let dm_a, t_a, paths = mk 3 1.0 in
  let pool_a = Timing.Paths.build dm_a paths in
  let model_b = Timing.Variation.make_model ~levels:3 ~random_boost:2.0 () in
  let dm_b = Timing.Delay_model.build nl model_b in
  let pool_b = Timing.Paths.build dm_b paths in
  let corner label pool t_cons =
    {
      Core.Corners.label;
      a = Timing.Paths.a_mat pool;
      mu = Timing.Paths.mu_paths pool;
      t_cons;
    }
  in
  (corner "typ" pool_a t_a, corner "noisy" pool_b (1.02 *. t_a), pool_a, pool_b)

let test_corners_meet_tolerance_everywhere () =
  let ca, cb, _, _ = corners_fixture () in
  let eps = 0.05 in
  let r = Core.Corners.select ~corners:[ ca; cb ] ~eps () in
  Alcotest.(check bool)
    (Printf.sprintf "worst eps_r %.4f <= eps" r.Core.Corners.worst_eps_r)
    true
    (r.Core.Corners.worst_eps_r <= eps +. 1e-9);
  List.iter
    (fun (label, sel) ->
      if sel.Core.Select.eps_r > eps +. 1e-9 then
        Alcotest.failf "corner %s violates eps: %.4f" label sel.Core.Select.eps_r)
    r.Core.Corners.per_corner

let test_corners_single_corner_degenerates () =
  let ca, _, _, _ = corners_fixture () in
  let eps = 0.05 in
  let joint = Core.Corners.select ~corners:[ ca ] ~eps () in
  let solo =
    Core.Select.approximate ~a:ca.Core.Corners.a ~mu:ca.Core.Corners.mu ~eps
      ~t_cons:ca.Core.Corners.t_cons ()
  in
  let nj = Array.length joint.Core.Corners.indices in
  let ns = Array.length solo.Core.Select.indices in
  if abs (nj - ns) > 2 then
    Alcotest.failf "single-corner joint %d far from solo %d" nj ns

let test_corners_needs_at_least_solo_size () =
  (* the joint selection cannot be smaller than (much below) the larger
     single-corner need *)
  let ca, cb, _, _ = corners_fixture () in
  let eps = 0.05 in
  let joint = Core.Corners.select ~corners:[ ca; cb ] ~eps () in
  let solo c =
    Array.length
      (Core.Select.approximate ~a:c.Core.Corners.a ~mu:c.Core.Corners.mu ~eps
         ~t_cons:c.Core.Corners.t_cons ()).Core.Select.indices
  in
  let need = max (solo ca) (solo cb) in
  Alcotest.(check bool) "joint >= max solo - 1" true
    (Array.length joint.Core.Corners.indices >= need - 1)

let test_corners_validation () =
  Alcotest.(check bool) "empty corners" true
    (match Core.Corners.select ~corners:[] ~eps:0.05 () with
     | (_ : Core.Corners.t) -> false
     | exception Invalid_argument _ -> true)

let test_corners_mc_accuracy_at_each_corner () =
  let ca, cb, pool_a, pool_b = corners_fixture () in
  let eps = 0.05 in
  let r = Core.Corners.select ~corners:[ ca; cb ] ~eps () in
  List.iter2
    (fun (label, sel) pool ->
      let mc = Timing.Monte_carlo.sample (Rng.create 40) pool ~n:800 in
      let m =
        Core.Evaluate.predictor_metrics sel.Core.Select.predictor
          ~path_delays:(Timing.Monte_carlo.path_delays mc)
      in
      if m.Core.Evaluate.e1 > eps *. 1.5 then
        Alcotest.failf "corner %s MC e1 %.4f too high" label m.Core.Evaluate.e1)
    r.Core.Corners.per_corner [ pool_a; pool_b ]

let unit_tests =
  [
    ("sdf: document structure", test_sdf_structure);
    ("sdf: rejects bad lengths", test_sdf_rejects_bad_lengths);
    ("corners: tolerance met at every corner", test_corners_meet_tolerance_everywhere);
    ("corners: single corner degenerates to solo", test_corners_single_corner_degenerates);
    ("corners: joint at least max solo", test_corners_needs_at_least_solo_size);
    ("corners: validation", test_corners_validation);
    ("corners: MC accuracy per corner", test_corners_mc_accuracy_at_each_corner);
  ]

let suites =
  [
    ( "sdf+corners",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
