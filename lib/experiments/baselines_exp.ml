type row = {
  method_name : string;
  r : int;
  e1_pct : float;
  e2_pct : float;
}

let eps = 0.05

let score pool mc_samples predictor =
  let mc = Timing.Monte_carlo.sample (Rng.create 7) pool ~n:mc_samples in
  Core.Evaluate.predictor_metrics predictor
    ~path_delays:(Timing.Monte_carlo.path_delays mc)

let run_bench profile preset =
  let _, setup =
    Table1.setup_for profile preset ~t_cons_scale:1.0
      ~max_paths:profile.Profile.max_paths
  in
  let pool = setup.Core.Pipeline.pool in
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  let mc_samples = profile.Profile.mc_samples in
  let algo1 = Core.Pipeline.approximate_selection setup ~eps in
  let r = max 1 (Array.length algo1.Core.Select.indices) in
  let entry name predictor =
    let m = score pool mc_samples predictor in
    {
      method_name = name;
      r = Array.length (Core.Predictor.rep_indices predictor);
      e1_pct = 100.0 *. m.Core.Evaluate.e1;
      e2_pct = 100.0 *. m.Core.Evaluate.e2;
    }
  in
  (* average the random baseline over a few draws so one lucky pick does
     not misrepresent it *)
  let random_avg =
    let rows =
      List.map
        (fun seed ->
          entry "random"
            (Core.Baselines.random_selection ~rng:(Rng.create seed) ~a ~mu ~r))
        [ 1; 2; 3 ]
    in
    let avg f = List.fold_left (fun acc x -> acc +. f x) 0.0 rows /. 3.0 in
    { method_name = "random (avg of 3)"; r;
      e1_pct = avg (fun x -> x.e1_pct); e2_pct = avg (fun x -> x.e2_pct) }
  in
  [
    entry "algorithm 1" algo1.Core.Select.predictor;
    random_avg;
    entry "feature clustering [3]"
      (Core.Baselines.feature_clustering ~rng:(Rng.create 5) ~pool ~r);
    entry "single RCP [7]" (Core.Baselines.representative_critical_path ~pool);
    entry "algorithm 1, r = 1"
      (let s =
         Core.Select.select_with_size ~a ~mu ~r:1 ()
       in
       s.Core.Select.predictor);
  ]

let run ?(oc = stdout) profile =
  Printf.fprintf oc
    "E12: Algorithm 1 vs related-work baselines (s1238, eps = %.0f%%, equal budgets)\n"
    (100.0 *. eps);
  let preset = Table1.preset "s1238" in
  let rows = run_bench profile preset in
  Printf.fprintf oc "%-24s %4s | %7s %7s\n" "method" "r" "e1%" "e2%";
  Printf.fprintf oc "%s\n" (String.make 48 '-');
  List.iter
    (fun row ->
      Printf.fprintf oc "%-24s %4d | %7.2f %7.2f\n" row.method_name row.r row.e1_pct
        row.e2_pct)
    rows;
  Printf.fprintf oc
    "(structural features and a single RCP cannot bind paths under high-dimensional\n\
     variation; the variational subset selection can)\n";
  flush oc;
  rows
