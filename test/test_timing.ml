(* Tests for the timing substrate: variation model, delay model, timing
   graph, path extraction, segments/matrices, Monte Carlo. *)

open Helpers

let small_netlist () =
  Circuit.Generator.generate
    { Circuit.Generator.default with num_gates = 120; num_inputs = 12;
      num_outputs = 10; depth = 9; seed = 5 }

let model3 () = Timing.Variation.make_model ~levels:3 ()

let small_pool () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r = Timing.Path_extract.extract dm ~t_cons ~yield_threshold:0.99 in
  (dm, t_cons, Timing.Paths.build dm r.Timing.Path_extract.paths)

(* The paper's Figure 1 circuit: nine gates, four designated paths
   merging at G5, where any three paths determine the fourth. *)
let figure1_pool () =
  let pi i = Circuit.Netlist.Pi i in
  let gout g = Circuit.Netlist.Gate_out g in
  let inv = Circuit.Cell.Inv in
  (* ids:      0   1   2   3   4   5   6   7   8
     names:   G1  G2  G3  G4  G5  G6  G7  G8  G9 *)
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
  let dm = Timing.Delay_model.build nl (model3 ()) in
  (* extract ALL four PI->PO paths: use a very high yield threshold and a
     tiny t_cons so every path qualifies *)
  let r = Timing.Path_extract.extract dm ~t_cons:1.0 ~yield_threshold:0.9999 in
  (dm, Timing.Paths.build dm r.Timing.Path_extract.paths)

(* ------------------------------------------------------------------ *)
(* Variation *)

let test_variation_region_counts () =
  let m3 = model3 () in
  Alcotest.(check int) "3-level regions" 21 (Timing.Variation.region_count m3);
  let m5 = Timing.Variation.make_model ~levels:5 () in
  Alcotest.(check int) "5-level regions" 341 (Timing.Variation.region_count m5)

let test_variation_weights_normalized () =
  let m = Timing.Variation.make_model ~levels:4 ~level_weights:[| 2.0; 1.0; 1.0; 1.0 |] () in
  check_close "weights sum to 1" 1.0 (Array.fold_left ( +. ) 0.0 m.level_weights)

let test_variation_cell_of_position () =
  Alcotest.(check int) "level 0 single cell" 0
    (Timing.Variation.cell_of_position ~level:0 0.73 0.21);
  Alcotest.(check int) "level 1 bottom-left" 0
    (Timing.Variation.cell_of_position ~level:1 0.1 0.1);
  Alcotest.(check int) "level 1 top-right" 3
    (Timing.Variation.cell_of_position ~level:1 0.9 0.9);
  Alcotest.(check int) "boundary clamped" 3
    (Timing.Variation.cell_of_position ~level:1 1.0 1.0)

let test_variation_nearby_gates_share_regions () =
  (* two positions in the same level-2 cell share all correlated vars *)
  let c1 = Timing.Variation.cell_of_position ~level:2 0.30 0.30 in
  let c2 = Timing.Variation.cell_of_position ~level:2 0.26 0.26 in
  Alcotest.(check int) "same cell" c1 c2;
  let far = Timing.Variation.cell_of_position ~level:2 0.9 0.9 in
  Alcotest.(check bool) "far cell differs" true (far <> c1)

let test_variation_validation () =
  Alcotest.(check bool) "levels 0 rejected" true
    (match Timing.Variation.make_model ~levels:0 () with
     | (_ : Timing.Variation.model) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "random_share 1 rejected" true
    (match Timing.Variation.make_model ~levels:2 ~random_share:1.0 () with
     | (_ : Timing.Variation.model) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Delay model *)

let test_delay_model_random_share () =
  let nl = small_netlist () in
  let share = 0.06 in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  (* for every gate, the random variable's variance must be [share] of
     the total *)
  for g = 0 to Circuit.Netlist.num_gates nl - 1 do
    let total = Timing.Delay_model.sigma dm g ** 2.0 in
    let rand_var =
      List.fold_left
        (fun acc (k, c) ->
          match k with
          | Timing.Variation.Gate_random _ -> acc +. (c *. c)
          | Timing.Variation.Region _ -> acc)
        0.0
        (Timing.Delay_model.sensitivities dm g)
    in
    check_close ~tol:1e-9 (Printf.sprintf "gate %d random share" g) share (rand_var /. total)
  done

let test_delay_model_boost_scales_random () =
  let nl = small_netlist () in
  let m1 = Timing.Variation.make_model ~levels:3 () in
  let m3 = Timing.Variation.make_model ~levels:3 ~random_boost:3.0 () in
  let d1 = Timing.Delay_model.build nl m1 in
  let d3 = Timing.Delay_model.build nl m3 in
  let rand_coeff dm g =
    List.fold_left
      (fun acc (k, c) ->
        match k with
        | Timing.Variation.Gate_random _ -> acc +. c
        | Timing.Variation.Region _ -> acc)
      0.0
      (Timing.Delay_model.sensitivities dm g)
  in
  check_close ~tol:1e-9 "boost multiplies random coeff" (3.0 *. rand_coeff d1 0)
    (rand_coeff d3 0)

let test_delay_model_nominal_positive () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  for g = 0 to Circuit.Netlist.num_gates nl - 1 do
    if Timing.Delay_model.nominal dm g <= 0.0 then Alcotest.failf "gate %d nominal <= 0" g
  done;
  Alcotest.(check bool) "critical delay positive" true
    (Timing.Delay_model.nominal_critical_delay dm > 0.0)

(* ------------------------------------------------------------------ *)
(* Tgraph *)

let test_tgraph_structure () =
  let nl = small_netlist () in
  let tg = Timing.Tgraph.build nl in
  Alcotest.(check int) "node count"
    (Circuit.Netlist.num_inputs nl + Circuit.Netlist.num_gates nl)
    (Timing.Tgraph.num_nodes tg);
  (* arc count = distinct (driver, gate) pairs: pins tied to the same
     net collapse to one timing arc *)
  let arcs = ref 0 in
  for v = 0 to Timing.Tgraph.num_nodes tg - 1 do
    arcs := !arcs + List.length (Timing.Tgraph.arcs_from tg v)
  done;
  let distinct = Hashtbl.create 256 in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      Array.iter (fun src -> Hashtbl.replace distinct (src, g.id) ()) g.fanin)
    (Circuit.Netlist.gates nl);
  Alcotest.(check int) "arc count = distinct driver pairs" (Hashtbl.length distinct) !arcs

let test_tgraph_rest_bounds () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let tg = Timing.Tgraph.build nl in
  let rest = Timing.Tgraph.rest_bounds tg ~gate_value:(Timing.Delay_model.nominal dm) in
  (* max over PIs of rest = critical delay *)
  let best =
    Array.fold_left (fun acc pi -> Float.max acc rest.(pi)) neg_infinity
      (Timing.Tgraph.pi_codes tg)
  in
  check_close ~tol:1e-6 "rest bound at PIs = critical delay"
    (Timing.Delay_model.nominal_critical_delay dm) best

(* ------------------------------------------------------------------ *)
(* Path extraction *)

let test_extract_paths_meet_criterion () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let y = 0.995 in
  let r = Timing.Path_extract.extract dm ~t_cons ~yield_threshold:y in
  Alcotest.(check bool) "some paths" true (r.paths <> []);
  List.iter
    (fun p ->
      let py = Timing.Path_extract.path_yield p ~t_cons in
      if py >= y then Alcotest.failf "extracted path with yield %.5f >= %.5f" py y)
    r.paths

let test_extract_path_delays_consistent () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r = Timing.Path_extract.extract dm ~t_cons ~yield_threshold:0.99 in
  List.iter
    (fun (p : Timing.Path_extract.path) ->
      let mu =
        Array.fold_left (fun acc g -> acc +. Timing.Delay_model.nominal dm g) 0.0 p.gates
      in
      check_close ~tol:1e-9 "mu = sum of nominals" mu p.mu;
      if p.sigma <= 0.0 then Alcotest.fail "sigma <= 0")
    r.paths

let test_extract_finds_all_without_pruning () =
  (* with an accept-everything criterion, B&B must enumerate every
     PI->PO path of the figure-1 circuit: exactly 4 *)
  let _, pool = figure1_pool () in
  Alcotest.(check int) "figure 1 has 4 paths" 4 (Timing.Paths.num_paths pool)

let test_extract_max_paths_cap () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let r = Timing.Path_extract.extract ~max_paths:5 dm ~t_cons:1.0 ~yield_threshold:0.9999 in
  Alcotest.(check int) "capped" 5 (List.length r.paths);
  Alcotest.(check bool) "flagged truncated" true r.truncated

let test_extract_dedupes_pin_paths () =
  (* two PIs feeding the same NAND give one gate-sequence path, not two *)
  let pi i = Circuit.Netlist.Pi i in
  let gout g = Circuit.Netlist.Gate_out g in
  let nl =
    Circuit.Netlist.build ~name:"dedup" ~num_inputs:2
      ~gates:[ ("g0", Circuit.Cell.Nand2, [| pi 0; pi 1 |], (0.5, 0.5)) ]
      ~outputs:[ gout 0 ]
  in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let r = Timing.Path_extract.extract dm ~t_cons:1.0 ~yield_threshold:0.9999 in
  Alcotest.(check int) "one unique path" 1 (List.length r.paths)

(* ------------------------------------------------------------------ *)
(* Paths: segments and matrices *)

let test_figure1_segments () =
  (* Figure 1's four paths decompose over segments; the merge at G5
     forces the G5 gate into its own or shared chains such that
     rank(G) = 3, reproducing d_p1 = d_p2 - d_p3 + d_p4 *)
  let _, pool = figure1_pool () in
  let g = Timing.Paths.g_mat pool in
  Alcotest.(check int) "rank(G) = 3" 3 (Linalg.Rank.of_mat g);
  let a = Timing.Paths.a_mat pool in
  Alcotest.(check bool) "rank(A) <= 3" true (Linalg.Rank.of_mat a <= 3)

let test_segments_partition_paths () =
  let _, _, pool = small_pool () in
  for i = 0 to Timing.Paths.num_paths pool - 1 do
    let p = Timing.Paths.path pool i in
    let segs = Timing.Paths.segments_of_path pool i in
    let concat =
      Array.concat (Array.to_list (Array.map (Timing.Paths.segment_gates pool) segs))
    in
    if concat <> p.gates then Alcotest.failf "path %d: segments do not concatenate" i
  done

let test_segments_disjoint_gates () =
  (* every gate belongs to at most one segment *)
  let _, _, pool = small_pool () in
  let seen = Hashtbl.create 256 in
  for s = 0 to Timing.Paths.num_segments pool - 1 do
    Array.iter
      (fun g ->
        match Hashtbl.find_opt seen g with
        | Some s' when s' <> s -> Alcotest.failf "gate %d in segments %d and %d" g s s'
        | Some _ | None -> Hashtbl.replace seen g s)
      (Timing.Paths.segment_gates pool s)
  done

let test_a_equals_g_sigma () =
  let _, _, pool = small_pool () in
  let a = Timing.Paths.a_mat pool in
  let gs = Linalg.Mat.mul (Timing.Paths.g_mat pool) (Timing.Paths.sigma_mat pool) in
  Alcotest.(check bool) "A = G Sigma" true (Linalg.Mat.equal ~tol:1e-9 a gs)

let test_a_matches_direct_rows () =
  let _, _, pool = small_pool () in
  let a = Timing.Paths.a_mat pool in
  for i = 0 to min 30 (Timing.Paths.num_paths pool - 1) do
    let direct = Timing.Paths.path_row pool i in
    if not (Linalg.Vec.equal ~tol:1e-9 direct (Linalg.Mat.row a i)) then
      Alcotest.failf "path %d row mismatch" i
  done

let test_mu_paths_equals_g_mu_segments () =
  let _, _, pool = small_pool () in
  let mu = Timing.Paths.mu_paths pool in
  let gmu = Linalg.Mat.apply (Timing.Paths.g_mat pool) (Timing.Paths.mu_segments pool) in
  Alcotest.(check bool) "mu_P = G mu_S" true (Linalg.Vec.equal ~tol:1e-7 mu gmu)

let test_path_sigma_matches_row_norm () =
  let _, _, pool = small_pool () in
  let a = Timing.Paths.a_mat pool in
  let norms = Linalg.Mat.row_norms2 a in
  for i = 0 to Timing.Paths.num_paths pool - 1 do
    let p = Timing.Paths.path pool i in
    check_close ~tol:1e-7 (Printf.sprintf "path %d sigma" i) p.sigma norms.(i)
  done

let test_rank_bounded_by_segments () =
  (* Lemma 1: rank(A) <= n_S *)
  let _, _, pool = small_pool () in
  let r = Linalg.Rank.of_mat (Timing.Paths.a_mat pool) in
  Alcotest.(check bool) "rank(A) <= n_S" true (r <= Timing.Paths.num_segments pool)

let test_covered_counts () =
  let _, _, pool = small_pool () in
  let n_gates_covered = Timing.Paths.covered_gates pool in
  let n_regions = Timing.Paths.covered_regions pool in
  (* m = |G_C| + 2 |R_C| as in the paper's variable accounting *)
  Alcotest.(check int) "variable count"
    (n_gates_covered + (2 * n_regions))
    (Timing.Paths.num_vars pool)

(* ------------------------------------------------------------------ *)
(* Monte Carlo *)

let test_mc_path_delay_moments () =
  let _, _, pool = small_pool () in
  let mc = Timing.Monte_carlo.sample (Rng.create 3) pool ~n:4000 in
  let d = Timing.Monte_carlo.path_delays mc in
  let mu = Timing.Paths.mu_paths pool in
  let a = Timing.Paths.a_mat pool in
  let sigmas = Linalg.Mat.row_norms2 a in
  (* check the first path's empirical mean and std against the model *)
  let col = Linalg.Mat.col d 0 in
  check_close ~tol:(4.0 *. sigmas.(0) /. sqrt 4000.0) "mean" mu.(0)
    (Stats.Descriptive.mean col);
  let sd = Stats.Descriptive.stddev col in
  if Float.abs (sd -. sigmas.(0)) > 0.1 *. sigmas.(0) then
    Alcotest.failf "std %.3f vs model %.3f" sd sigmas.(0)

let test_mc_paths_vs_segments_consistent () =
  (* path delay must equal the sum of its segment delays, per sample *)
  let _, _, pool = small_pool () in
  let mc = Timing.Monte_carlo.sample (Rng.create 11) pool ~n:50 in
  let dp = Timing.Monte_carlo.path_delays mc in
  let ds = Timing.Monte_carlo.segment_delays mc in
  for i = 0 to min 20 (Timing.Paths.num_paths pool - 1) do
    let segs = Timing.Paths.segments_of_path pool i in
    for k = 0 to 49 do
      let sum = Array.fold_left (fun acc s -> acc +. Linalg.Mat.get ds k s) 0.0 segs in
      check_close ~tol:1e-7 "d_path = sum d_segments" (Linalg.Mat.get dp k i) sum
    done
  done

let test_mc_circuit_yield_sane () =
  let nl = small_netlist () in
  let dm = Timing.Delay_model.build nl (model3 ()) in
  let t = Timing.Delay_model.nominal_critical_delay dm in
  let y_tight = Timing.Monte_carlo.circuit_yield dm ~t_cons:t ~rng:(Rng.create 1) ~samples:300 in
  let y_loose =
    Timing.Monte_carlo.circuit_yield dm ~t_cons:(1.3 *. t) ~rng:(Rng.create 1) ~samples:300
  in
  Alcotest.(check bool) "tight < loose" true (y_tight < y_loose);
  Alcotest.(check bool) "loose near 1" true (y_loose > 0.95)

let prop_extraction_threshold_monotone =
  QCheck.Test.make ~count:8 ~name:"stricter yield threshold extracts fewer paths"
    QCheck.(int_range 1 100)
    (fun seed ->
      let nl =
        Circuit.Generator.generate
          { Circuit.Generator.default with num_gates = 100; seed; depth = 8 }
      in
      let dm = Timing.Delay_model.build nl (model3 ()) in
      let t = Timing.Delay_model.nominal_critical_delay dm in
      let n_at y =
        List.length (Timing.Path_extract.extract dm ~t_cons:t ~yield_threshold:y).paths
      in
      n_at 0.9 <= n_at 0.99)

let unit_tests =
  [
    ("variation: region counts 21/341", test_variation_region_counts);
    ("variation: weights normalized", test_variation_weights_normalized);
    ("variation: quadtree cell lookup", test_variation_cell_of_position);
    ("variation: locality shares regions", test_variation_nearby_gates_share_regions);
    ("variation: validation", test_variation_validation);
    ("delay: random share is 6%", test_delay_model_random_share);
    ("delay: boost scales random term", test_delay_model_boost_scales_random);
    ("delay: positive nominals", test_delay_model_nominal_positive);
    ("tgraph: structure", test_tgraph_structure);
    ("tgraph: rest bounds = critical delay", test_tgraph_rest_bounds);
    ("extract: paths meet yield criterion", test_extract_paths_meet_criterion);
    ("extract: delays consistent", test_extract_path_delays_consistent);
    ("extract: figure-1 enumerates all 4", test_extract_finds_all_without_pruning);
    ("extract: max_paths cap", test_extract_max_paths_cap);
    ("extract: dedupes pin-level paths", test_extract_dedupes_pin_paths);
    ("paths: figure-1 rank(G) = 3", test_figure1_segments);
    ("paths: segments partition each path", test_segments_partition_paths);
    ("paths: segments have disjoint gates", test_segments_disjoint_gates);
    ("paths: A = G Sigma", test_a_equals_g_sigma);
    ("paths: A matches direct rows", test_a_matches_direct_rows);
    ("paths: mu_P = G mu_S", test_mu_paths_equals_g_mu_segments);
    ("paths: path sigma = row norm", test_path_sigma_matches_row_norm);
    ("paths: Lemma 1 rank(A) <= n_S", test_rank_bounded_by_segments);
    ("paths: variable accounting |G_C| + 2|R_C|", test_covered_counts);
    ("mc: path delay moments", test_mc_path_delay_moments);
    ("mc: paths = sum of segments per die", test_mc_paths_vs_segments_consistent);
    ("mc: circuit yield sane", test_mc_circuit_yield_sane);
  ]

let property_tests =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_extraction_threshold_monotone ]

let suites =
  [
    ( "timing",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
