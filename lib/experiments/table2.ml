type row = {
  bench : string;
  gates : int;
  regions : int;
  covered_gates : int;
  covered_regions : int;
  n_target : int;
  approx_paths : int;
  approx_e1_pct : float;
  approx_e2_pct : float;
  hybrid_paths : int;
  hybrid_segments : int;
  hybrid_total : int;
  hybrid_e1_pct : float;
  hybrid_e2_pct : float;
  seconds : float;
}

let eps = 0.08

let t_cons_scale = 0.98

(* the row without its wall time: [run] times this call and fills
   [seconds] *)
let run_bench profile preset =
  let netlist, setup =
    Table1.setup_for profile preset ~t_cons_scale ~max_paths:profile.Profile.max_paths
  in
  let pool = setup.Core.Pipeline.pool in
  let approx = Core.Pipeline.approximate_selection setup ~eps in
  let approx_metrics =
    Core.Pipeline.evaluate_selection ~mc_samples:profile.Profile.mc_samples setup approx
  in
  (* quick profile: a lighter eps' grid and solver budget; the refit step
     makes the support robust to the reduced FISTA precision *)
  let eps_prime_grid, solver_options =
    if profile.Profile.name = "full" then (None, None)
    else
      ( Some [ 0.45; 0.7 ],
        Some
          {
            Convexopt.Group_select.default_options with
            lambda_steps = 12;
            bisect_steps = 4;
            fista_stop = { Convexopt.Fista.max_iter = 120; rel_tol = 1e-6 };
          } )
  in
  let hybrid =
    Core.Pipeline.hybrid_selection ?eps_prime_grid ?solver_options setup ~eps
  in
  let hybrid_metrics =
    Core.Pipeline.evaluate_hybrid ~mc_samples:profile.Profile.mc_samples setup hybrid
  in
  {
    bench = preset.Circuit.Benchmarks.bench_name;
    gates = Circuit.Netlist.num_gates netlist;
    regions = Circuit.Benchmarks.region_count preset;
    covered_gates = Timing.Paths.covered_gates pool;
    covered_regions = Timing.Paths.covered_regions pool;
    n_target = Timing.Paths.num_paths pool;
    approx_paths = Array.length approx.Core.Select.indices;
    approx_e1_pct = 100.0 *. approx_metrics.Core.Evaluate.e1;
    approx_e2_pct = 100.0 *. approx_metrics.Core.Evaluate.e2;
    hybrid_paths = Array.length hybrid.Core.Hybrid.path_indices;
    hybrid_segments = Array.length hybrid.Core.Hybrid.segment_indices;
    hybrid_total = Core.Hybrid.total_measurements hybrid;
    hybrid_e1_pct = 100.0 *. hybrid_metrics.Core.Evaluate.e1;
    hybrid_e2_pct = 100.0 *. hybrid_metrics.Core.Evaluate.e2;
    seconds = 0.0;
  }

let print_header oc =
  Printf.fprintf oc
    "Table 2: Results for Evaluating Hybrid Path/Segment Selection (eps = %.0f%%)\n"
    (100.0 *. eps);
  Printf.fprintf oc
    "%-9s %6s %4s %5s %4s %6s | %5s %5s %5s | %5s %5s %6s %5s %5s | %6s\n" "BENCH"
    "|G|" "|R|" "|Gc|" "|Rc|" "|Ptar|" "|Pr|" "e1%" "e2%" "|Pr|" "|Sr|" "P+S" "e1%"
    "e2%" "sec";
  Printf.fprintf oc "%s\n" (String.make 100 '-')

let print_row oc r =
  Printf.fprintf oc
    "%-9s %6d %4d %5d %4d %6d | %5d %5.2f %5.2f | %5d %5d %6d %5.2f %5.2f | %6.1f\n"
    r.bench r.gates r.regions r.covered_gates r.covered_regions r.n_target
    r.approx_paths r.approx_e1_pct r.approx_e2_pct r.hybrid_paths r.hybrid_segments
    r.hybrid_total r.hybrid_e1_pct r.hybrid_e2_pct r.seconds

let print_footer oc rows =
  let n = float_of_int (max 1 (List.length rows)) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  Printf.fprintf oc "%s\n" (String.make 100 '-');
  Printf.fprintf oc
    "%-9s %6s %4s %5.0f %4.0f %6.0f | %5.0f %5.2f %5.2f | %5.0f %5.0f %6.0f %5.2f %5.2f |\n"
    "Ave" "" ""
    (avg (fun r -> float_of_int r.covered_gates))
    (avg (fun r -> float_of_int r.covered_regions))
    (avg (fun r -> float_of_int r.n_target))
    (avg (fun r -> float_of_int r.approx_paths))
    (avg (fun r -> r.approx_e1_pct))
    (avg (fun r -> r.approx_e2_pct))
    (avg (fun r -> float_of_int r.hybrid_paths))
    (avg (fun r -> float_of_int r.hybrid_segments))
    (avg (fun r -> float_of_int r.hybrid_total))
    (avg (fun r -> r.hybrid_e1_pct))
    (avg (fun r -> r.hybrid_e2_pct))

let run ?(oc = stdout) profile =
  print_header oc;
  let rows =
    List.map
      (fun preset ->
        let r, seconds = Soak.time (fun () -> run_bench profile preset) in
        let r = { r with seconds } in
        print_row oc r;
        flush oc;
        r)
      profile.Profile.benches
  in
  print_footer oc rows;
  flush oc;
  rows
