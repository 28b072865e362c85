type schedule_row = {
  bench : string;
  linear_r : int;
  linear_evals : int;
  linear_seconds : float;
  bisect_r : int;
  bisect_evals : int;
  bisect_seconds : float;
}

type eta_row = { eta_pct : float; effective_rank : int }

let eps = 0.05

let run_schedule ?(oc = stdout) profile =
  Printf.fprintf oc "Ablation E5: Algorithm-1 schedule (eps = %.0f%%)\n" (100.0 *. eps);
  Printf.fprintf oc "%-9s | %8s %6s %7s | %8s %6s %7s\n" "BENCH" "lin |Pr|" "evals"
    "sec" "bis |Pr|" "evals" "sec";
  Printf.fprintf oc "%s\n" (String.make 64 '-');
  let chosen =
    List.filter
      (fun p ->
        List.mem p.Circuit.Benchmarks.bench_name [ "s1196"; "s1238"; "s1423" ])
      profile.Profile.benches
  in
  let rows =
    List.map
      (fun preset ->
        let _, setup =
          Table1.setup_for profile preset ~t_cons_scale:1.0
            ~max_paths:profile.Profile.max_paths
        in
        let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
        let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
        let timed schedule =
          Soak.time (fun () ->
              Core.Select.approximate ~schedule ~a ~mu ~eps
                ~t_cons:setup.Core.Pipeline.t_cons ())
        in
        let lin, lin_t = timed Core.Select.Linear in
        let bis, bis_t = timed Core.Select.Bisection in
        let row =
          {
            bench = preset.Circuit.Benchmarks.bench_name;
            linear_r = Array.length lin.Core.Select.indices;
            linear_evals = lin.Core.Select.evaluations;
            linear_seconds = lin_t;
            bisect_r = Array.length bis.Core.Select.indices;
            bisect_evals = bis.Core.Select.evaluations;
            bisect_seconds = bis_t;
          }
        in
        Printf.fprintf oc "%-9s | %8d %6d %7.2f | %8d %6d %7.2f\n" row.bench
          row.linear_r row.linear_evals row.linear_seconds row.bisect_r
          row.bisect_evals row.bisect_seconds;
        flush oc;
        row)
      chosen
  in
  rows

let run_eta ?(oc = stdout) profile =
  Printf.fprintf oc "\nAblation E6: effective-rank threshold eta (s1423)\n";
  let setup = Table1.setup profile "s1423" in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let svd = Linalg.Svd.factor ~vectors:Values a in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  Printf.fprintf oc "rank(A) = %d; |P_r| at eps=5%% = %d\n" (Linalg.Svd.rank svd)
    (Array.length sel.Core.Select.indices);
  Printf.fprintf oc "%8s | %s\n" "eta" "effective rank";
  let rows =
    List.map
      (fun eta ->
        let er = Core.Effective_rank.of_singular_values ~eta svd.Linalg.Svd.s in
        Printf.fprintf oc "%7.0f%% | %d\n" (100.0 *. eta) er;
        { eta_pct = 100.0 *. eta; effective_rank = er })
      [ 0.01; 0.02; 0.05; 0.10 ]
  in
  flush oc;
  rows

type cluster_row = {
  k : int;
  selected : int;
  cluster_eps_r_pct : float;
  cluster_seconds : float;
}

let run_cluster ?(oc = stdout) profile =
  Printf.fprintf oc "\nAblation E7: Section-4.4 clustering speedup (s38417, eps = %.0f%%)\n"
    (100.0 *. eps);
  let setup = Table1.setup profile "s38417" in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  Printf.fprintf oc "%10s | %8s %10s %8s\n" "k" "|Pr|" "eps_r%" "sec";
  Printf.fprintf oc "%s\n" (String.make 44 '-');
  let direct_row =
    let s, cluster_seconds =
      Soak.time (fun () -> Core.Select.approximate ~a ~mu ~eps ~t_cons ())
    in
    {
      k = 1;
      selected = Array.length s.Core.Select.indices;
      cluster_eps_r_pct = 100.0 *. s.Core.Select.eps_r;
      cluster_seconds;
    }
  in
  Printf.fprintf oc "%10s | %8d %10.2f %8.2f\n" "direct" direct_row.selected
    direct_row.cluster_eps_r_pct direct_row.cluster_seconds;
  let rows =
    List.map
      (fun k ->
        let c, cluster_seconds =
          Soak.time (fun () -> Core.Cluster.select ~k ~a ~mu ~eps ~t_cons ())
        in
        let row =
          {
            k;
            selected = Array.length c.Core.Cluster.indices;
            cluster_eps_r_pct = 100.0 *. c.Core.Cluster.eps_r;
            cluster_seconds;
          }
        in
        Printf.fprintf oc "%10d | %8d %10.2f %8.2f\n" row.k row.selected
          row.cluster_eps_r_pct row.cluster_seconds;
        flush oc;
        row)
      [ 2; 4; 8 ]
  in
  Printf.fprintf oc
    "(clustering trades a slightly larger selection for much smaller SVDs)\n";
  flush oc;
  direct_row :: rows

type nested_row = {
  nested_bench : string;
  repivot_r : int;
  repivot_seconds : float;
  nested_r : int;
  nested_seconds : float;
}

let run_nested ?(oc = stdout) profile =
  Printf.fprintf oc
    "\nAblation E10: per-r re-pivoting vs incremental nested pivots (eps = %.0f%%)\n"
    (100.0 *. eps);
  Printf.fprintf oc "%-9s | %10s %8s | %9s %8s\n" "BENCH" "repivot|Pr|" "sec"
    "nested|Pr|" "sec";
  Printf.fprintf oc "%s\n" (String.make 56 '-');
  let chosen =
    List.filter
      (fun p -> List.mem p.Circuit.Benchmarks.bench_name [ "s1238"; "s5378" ])
      profile.Profile.benches
  in
  List.map
    (fun preset ->
      let _, setup =
        Table1.setup_for profile preset ~t_cons_scale:1.0
          ~max_paths:profile.Profile.max_paths
      in
      let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
      let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
      let t_cons = setup.Core.Pipeline.t_cons in
      let repivot, t_re =
        Soak.time (fun () -> Core.Select.approximate ~a ~mu ~eps ~t_cons ())
      in
      let nested, t_ne =
        Soak.time (fun () -> Core.Select.approximate_nested ~a ~mu ~eps ~t_cons ())
      in
      let row =
        {
          nested_bench = preset.Circuit.Benchmarks.bench_name;
          repivot_r = Array.length repivot.Core.Select.indices;
          repivot_seconds = t_re;
          nested_r = Array.length nested.Core.Select.indices;
          nested_seconds = t_ne;
        }
      in
      Printf.fprintf oc "%-9s | %10d %8.2f | %9d %8.2f\n" row.nested_bench
        row.repivot_r row.repivot_seconds row.nested_r row.nested_seconds;
      flush oc;
      row)
    chosen

let run ?(oc = stdout) profile =
  let (_ : schedule_row list) = run_schedule ~oc profile in
  let (_ : eta_row list) = run_eta ~oc profile in
  let (_ : cluster_row list) = run_cluster ~oc profile in
  let (_ : nested_row list) = run_nested ~oc profile in
  ()
