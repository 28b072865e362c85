type row = {
  bench : string;
  gates : int;
  regions : int;
  n_target : int;
  n_exact : int;
  n_approx : int;
  e1_pct : float;
  e2_pct : float;
  seconds : float;
}

let eps = 0.05

let setup_for profile preset ~t_cons_scale ~max_paths =
  let scale = profile.Profile.scale_of preset in
  let netlist = Circuit.Benchmarks.netlist ~scale preset in
  let model =
    Timing.Variation.make_model ~levels:preset.Circuit.Benchmarks.region_levels ()
  in
  let setup =
    Core.Pipeline.prepare ~t_cons_scale ~max_paths
      ~yield_samples:profile.Profile.yield_samples ~netlist ~model ()
  in
  (netlist, setup)

let preset name =
  match Circuit.Benchmarks.find name with
  | Some p -> p
  | None -> Core.Errors.raise_error (Core.Errors.Invalid_input (name ^ " preset missing"))

let setup profile name =
  snd
    (setup_for profile (preset name) ~t_cons_scale:1.0
       ~max_paths:profile.Profile.max_paths)

(* the row without its wall time: [run] times this call and fills
   [seconds] *)
let run_bench profile preset =
  let netlist, setup =
    setup_for profile preset ~t_cons_scale:1.0 ~max_paths:profile.Profile.max_paths
  in
  let approx = Core.Pipeline.approximate_selection setup ~eps in
  let metrics =
    Core.Pipeline.evaluate_selection ~mc_samples:profile.Profile.mc_samples setup approx
  in
  {
    bench = preset.Circuit.Benchmarks.bench_name;
    gates = Circuit.Netlist.num_gates netlist;
    regions = Circuit.Benchmarks.region_count preset;
    n_target = Timing.Paths.num_paths setup.Core.Pipeline.pool;
    (* the exact selection keeps max 1 rank(A) paths (Theorem 1), and
       [approx] read that rank off the same factorization *)
    n_exact = max 1 approx.Core.Select.rank;
    n_approx = Array.length approx.Core.Select.indices;
    e1_pct = 100.0 *. metrics.Core.Evaluate.e1;
    e2_pct = 100.0 *. metrics.Core.Evaluate.e2;
    seconds = 0.0;
  }

let print_header oc =
  Printf.fprintf oc
    "Table 1: Results for Approximate Path Selection (eps = %.0f%%)\n" (100.0 *. eps);
  Printf.fprintf oc "%-9s %6s %5s %7s | %9s | %9s %6s %6s | %7s\n" "BENCH" "|G|"
    "|R|" "|Ptar|" "exact|Pr|" "apx|Pr|" "e1%" "e2%" "sec";
  Printf.fprintf oc "%s\n" (String.make 78 '-')

let print_row oc r =
  Printf.fprintf oc "%-9s %6d %5d %7d | %9d | %9d %6.2f %6.2f | %7.1f\n" r.bench
    r.gates r.regions r.n_target r.n_exact r.n_approx r.e1_pct r.e2_pct r.seconds

let print_footer oc rows =
  let n = float_of_int (max 1 (List.length rows)) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  Printf.fprintf oc "%s\n" (String.make 78 '-');
  Printf.fprintf oc "%-9s %6s %5s %7.0f | %9.0f | %9.0f %6.2f %6.2f | %7.1f\n" "Ave" ""
    ""
    (avg (fun r -> float_of_int r.n_target))
    (avg (fun r -> float_of_int r.n_exact))
    (avg (fun r -> float_of_int r.n_approx))
    (avg (fun r -> r.e1_pct))
    (avg (fun r -> r.e2_pct))
    (avg (fun r -> r.seconds))

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
