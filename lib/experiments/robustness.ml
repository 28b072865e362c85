type rsvd_row = {
  method_name : string;
  selected : int;
  eps_r_pct : float;
  seconds : float;
}

type noise_row = {
  label : string;
  quantization_ps : float;
  jitter_ps : float;
  e1_pct : float;
  e2_pct : float;
  detection_rate : float;
  false_alarm_rate : float;
}

let eps = 0.05

let run_rsvd ?(oc = stdout) profile =
  Printf.fprintf oc "E8: exact SVD vs randomized SVD in Algorithm 1 (s38417, eps = %.0f%%)\n"
    (100.0 *. eps);
  let setup = Table1.setup profile "s38417" in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  Printf.fprintf oc "%-22s | %6s %10s %8s\n" "method" "|Pr|" "eps_r%" "sec";
  Printf.fprintf oc "%s\n" (String.make 52 '-');
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let sel = f () in
    let row =
      {
        method_name = name;
        selected = Array.length sel.Core.Select.indices;
        eps_r_pct = 100.0 *. sel.Core.Select.eps_r;
        seconds = Unix.gettimeofday () -. t0;
      }
    in
    Printf.fprintf oc "%-22s | %6d %10.2f %8.2f\n" row.method_name row.selected
      row.eps_r_pct row.seconds;
    flush oc;
    row
  in
  let exact_row =
    timed "exact (Golub-Reinsch)" (fun () ->
        Core.Select.approximate ~a ~mu ~eps ~t_cons ())
  in
  (* the sketch only needs to span a bit beyond the expected selection *)
  let sketch_rank = max 16 (2 * exact_row.selected + 8) in
  let rand_row =
    timed
      (Printf.sprintf "randomized (k = %d)" sketch_rank)
      (fun () ->
        Core.Select.approximate ~engine:Core.Select.Sketched
          ~sketch:{ Core.Select.default_sketch with sketch_rank = Some sketch_rank }
          ~a ~mu ~eps ~t_cons ())
  in
  Printf.fprintf oc
    "(both meet eps; the randomized path avoids the full %dx%d factorization)\n"
    (fst (Linalg.Mat.dims a)) (snd (Linalg.Mat.dims a));
  flush oc;
  [ exact_row; rand_row ]

let run_noise ?(oc = stdout) profile =
  Printf.fprintf oc
    "\nE9: robustness to silicon measurement error (s1423, eps = %.0f%%)\n"
    (100.0 *. eps);
  let setup = Table1.setup profile "s1423" in
  let pool = setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let rem = Core.Predictor.rem_indices p in
  let mc = Timing.Monte_carlo.sample (Rng.create 7) pool ~n:profile.Profile.mc_samples in
  let d = Timing.Monte_carlo.path_delays mc in
  let truth = Linalg.Mat.select_cols d rem in
  let clean_measured = Linalg.Mat.select_cols d rep in
  let kappa = 3.0 in
  Printf.fprintf oc "%-18s %8s %8s | %6s %6s | %9s %11s\n" "measurement" "quant"
    "jitter" "e1%" "e2%" "detect" "false-alarm";
  Printf.fprintf oc "%s\n" (String.make 76 '-');
  let models =
    [
      ("ideal", Timing.Measurement.ideal);
      ("1ps TDC", { Timing.Measurement.quantization_ps = 1.0; jitter_sigma_ps = 0.5;
                    offset_ps = 0.0 });
      ("path-RO (typical)", Timing.Measurement.typical_path_ro);
      ("coarse 5ps", { Timing.Measurement.quantization_ps = 5.0; jitter_sigma_ps = 2.0;
                       offset_ps = 0.0 });
      ("coarse 10ps", { Timing.Measurement.quantization_ps = 10.0; jitter_sigma_ps = 4.0;
                        offset_ps = 0.0 });
    ]
  in
  let rows =
    List.map
      (fun (label, m) ->
        let rng = Rng.create 31 in
        let measured = Timing.Measurement.apply_mat m rng clean_measured in
        let predicted = Core.Predictor.predict_all p ~measured in
        let metrics = Core.Evaluate.of_predictions ~truth ~predicted in
        (* measurement-aware guard band: prediction band + propagated
           worst-case measurement error *)
        let meas_wc = Timing.Measurement.worst_case_error m ~kappa in
        let band =
          Array.map
            (fun e -> Float.min 0.99 (e +. (2.0 *. meas_wc /. t_cons)))
            sel.Core.Select.per_path_eps
        in
        let report = Core.Guardband.analyze ~truth ~predicted ~eps:band ~t_cons in
        let row =
          {
            label;
            quantization_ps = m.Timing.Measurement.quantization_ps;
            jitter_ps = m.Timing.Measurement.jitter_sigma_ps;
            e1_pct = 100.0 *. metrics.Core.Evaluate.e1;
            e2_pct = 100.0 *. metrics.Core.Evaluate.e2;
            detection_rate = report.Core.Guardband.detection_rate;
            false_alarm_rate = report.Core.Guardband.false_alarm_rate;
          }
        in
        Printf.fprintf oc "%-18s %7.1fp %7.1fp | %6.2f %6.2f | %8.2f%% %10.3f%%\n"
          row.label row.quantization_ps row.jitter_ps row.e1_pct row.e2_pct
          (100.0 *. row.detection_rate)
          (100.0 *. row.false_alarm_rate);
        flush oc;
        row)
      models
  in
  Printf.fprintf oc
    "(the widened guard band keeps detection near 100%% even at 10 ps \
     quantization)\n";
  flush oc;
  rows

type ssta_row = {
  t_over_nominal : float;
  ssta_yield : float;
  mc_yield : float;
}

let run_ssta ?(oc = stdout) profile =
  Printf.fprintf oc
    "\nE11: block-based SSTA (Clark max) vs full Monte Carlo yield (s1238)\n";
  let preset = Table1.preset "s1238" in
  let scale = profile.Profile.scale_of preset in
  let netlist = Circuit.Benchmarks.netlist ~scale preset in
  let model =
    Timing.Variation.make_model ~levels:preset.Circuit.Benchmarks.region_levels ()
  in
  let dm = Timing.Delay_model.build netlist model in
  let analysis = Timing.Ssta.analyze dm in
  let nominal = Timing.Delay_model.nominal_critical_delay dm in
  Printf.fprintf oc
    "SSTA circuit delay: mean %.1f ps, sigma %.2f ps (nominal longest path %.1f ps)\n"
    analysis.Timing.Ssta.circuit_delay.Timing.Ssta.mean
    (Timing.Ssta.sigma analysis.Timing.Ssta.circuit_delay)
    nominal;
  Printf.fprintf oc "%12s | %10s %10s\n" "T/nominal" "SSTA yield" "MC yield";
  Printf.fprintf oc "%s\n" (String.make 38 '-');
  List.map
    (fun f ->
      let t = f *. nominal in
      let ssta_yield = Timing.Ssta.yield_at analysis t in
      let mc_yield =
        Timing.Monte_carlo.circuit_yield dm ~t_cons:t ~rng:(Rng.create 13)
          ~samples:profile.Profile.yield_samples
      in
      Printf.fprintf oc "%12.3f | %10.4f %10.4f\n" f ssta_yield mc_yield;
      flush oc;
      { t_over_nominal = f; ssta_yield; mc_yield })
    [ 1.0; 1.02; 1.04; 1.06; 1.08; 1.12 ]

let run ?(oc = stdout) profile =
  let (_ : rsvd_row list) = run_rsvd ~oc profile in
  let (_ : noise_row list) = run_noise ~oc profile in
  let (_ : ssta_row list) = run_ssta ~oc profile in
  ()
