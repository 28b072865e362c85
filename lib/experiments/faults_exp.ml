type row = {
  label : string;
  dropout : float;
  outlier_rate : float;
  robust_e1_pct : float;
  robust_e2_pct : float;
  naive_e1_pct : float option;  (* None: naive predictor failed outright *)
  naive_e2_pct : float option;
  flagged : int;
  injected_gross : int;
  missing : int;
  dead_dies : int;
  ridge_fallbacks : int;
}

let eps = 0.05

(* outlier_scale 1.0: gross errors of 50-150% of the reading, the
   "obviously broken TDC" regime. The default 0.5 sits right at the
   edge of MAD detectability for near-critical paths (a 25% error is
   only ~4-6 population sigmas), which is interesting for the screen's
   ROC but muddies the sweep. *)
let spec_of ~dropout ~outliers =
  { Timing.Faults.none with
    Timing.Faults.path_dropout = dropout;
    outlier_rate = outliers;
    outlier_scale = 1.0 }

(* The naive Theorem-2 path applied directly to faulted data: NaNs from
   missing entries propagate into the predictions, which Evaluate now
   rejects as Bad_data; outliers pass through and inflate the errors. *)
let naive_metrics p ~truth ~measured =
  try
    let predicted = Core.Predictor.predict_all p ~measured in
    Some (Core.Evaluate.of_predictions ~truth ~predicted)
  with Core.Errors.Error (Core.Errors.Bad_data _) -> None

let print_row oc r =
  let opt = function
    | Some v -> Printf.sprintf "%6.2f" v
    | None -> "  FAIL"
  in
  Printf.fprintf oc
    "%-18s %7.0f%% %8.1f%% | %6.2f %6.2f | %s %s | %5d/%-5d %5d %4d %5d\n"
    r.label (100.0 *. r.dropout) (100.0 *. r.outlier_rate) r.robust_e1_pct
    r.robust_e2_pct (opt r.naive_e1_pct) (opt r.naive_e2_pct) r.flagged
    r.injected_gross r.missing r.dead_dies r.ridge_fallbacks;
  flush oc

let run ?(oc = stdout) profile =
  Printf.fprintf oc
    "E13: fault-tolerant prediction under dirty silicon data (s1423, eps = %.0f%%)\n"
    (100.0 *. eps);
  let setup = Table1.setup profile "s1423" in
  let pool = setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  (* exact selection (r = rank A): the approximate one can get by with a
     single representative path here, and then any dropout kills the
     whole die — the masked-recompute machinery never gets exercised *)
  let sel = Core.Select.exact ~a ~mu () in
  let robust = Core.Robust.of_selection ~a ~mu sel in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let rem = Core.Predictor.rem_indices p in
  let mc = Timing.Monte_carlo.sample (Rng.create 7) pool ~n:profile.Profile.mc_samples in
  let d = Timing.Monte_carlo.path_delays mc in
  let truth = Linalg.Mat.select_cols d rem in
  let clean = Linalg.Mat.select_cols d rep in
  let baseline = Core.Evaluate.predictor_metrics p ~path_delays:d in
  Printf.fprintf oc
    "selection |Pr| = %d of %d paths; clean baseline e1 = %.2f%%, e2 = %.2f%%\n"
    (Array.length rep)
    (Timing.Paths.num_paths pool)
    (100.0 *. baseline.Core.Evaluate.e1)
    (100.0 *. baseline.Core.Evaluate.e2);
  Printf.fprintf oc "%-18s %8s %9s | %6s %6s | %6s %6s | %11s %5s %4s %5s\n"
    "faults" "dropout" "outliers" "rob-e1" "rob-e2" "nve-e1" "nve-e2"
    "flag/gross" "miss" "dead" "ridge";
  Printf.fprintf oc "%s\n" (String.make 100 '-');
  let cell ?label ?(measurement = Timing.Measurement.ideal) ~seed spec =
    Timing.Faults.validate spec;
    let label =
      match label with
      | Some l -> l
      | None ->
        if Timing.Faults.is_none spec then "none" else Timing.Faults.to_string spec
    in
    let inj = Timing.Faults.inject ~measurement spec (Rng.create seed) clean in
    let pr = Core.Robust.predict_all robust ~measured:inj.Timing.Faults.data in
    let m = Core.Robust.metrics pr ~truth in
    let naive = naive_metrics p ~truth ~measured:inj.Timing.Faults.data in
    let stats = inj.Timing.Faults.stats in
    let row =
      {
        label;
        dropout = spec.Timing.Faults.path_dropout;
        outlier_rate = spec.Timing.Faults.outlier_rate;
        robust_e1_pct = 100.0 *. m.Core.Evaluate.e1;
        robust_e2_pct = 100.0 *. m.Core.Evaluate.e2;
        naive_e1_pct = Option.map (fun n -> 100.0 *. n.Core.Evaluate.e1) naive;
        naive_e2_pct = Option.map (fun n -> 100.0 *. n.Core.Evaluate.e2) naive;
        flagged = pr.Core.Robust.screened.Core.Robust.outliers;
        injected_gross =
          stats.Timing.Faults.outlier_entries + stats.Timing.Faults.stuck_entries;
        missing = stats.Timing.Faults.missing_entries;
        dead_dies = pr.Core.Robust.dead_dies;
        ridge_fallbacks = pr.Core.Robust.ridge_fallbacks;
      }
    in
    print_row oc row;
    row
  in
  let grid =
    [
      (101, Some "none", None, spec_of ~dropout:0.0 ~outliers:0.0);
      (102, Some "dropout 5%", None, spec_of ~dropout:0.05 ~outliers:0.0);
      (103, Some "dropout 10%", None, spec_of ~dropout:0.10 ~outliers:0.0);
      (104, Some "dropout 20%", None, spec_of ~dropout:0.20 ~outliers:0.0);
      (105, Some "outliers 1%", None, spec_of ~dropout:0.0 ~outliers:0.01);
      (106, Some "outliers 5%", None, spec_of ~dropout:0.0 ~outliers:0.05);
      (107, Some "drop+outliers", None, spec_of ~dropout:0.10 ~outliers:0.01);
      ( 108,
        Some "full chain",
        Some Timing.Measurement.typical_path_ro,
        { Timing.Faults.none with
          Timing.Faults.path_dropout = 0.10;
          die_dropout = 0.01;
          outlier_rate = 0.01;
          stuck_rate = 0.005;
          drift_sigma_ps = 2.0 } );
    ]
  in
  let rows =
    List.map
      (fun (seed, label, measurement, spec) ->
        cell ?label ?measurement ~seed spec)
      grid
  in
  Printf.fprintf oc
    "(dropout alone kills the naive predictor — NaN predictions are rejected \
     as Bad_data;\n outliers alone let it finish with inflated errors)\n";
  (* Measurement-aware guard band composed with the outlier screen: the
     band widens by the benign worst-case measurement error only — the
     screen has already removed the gross faults it would otherwise
     have to cover. *)
  let measurement = Timing.Measurement.typical_path_ro in
  let kappa = 3.0 in
  let inj =
    Timing.Faults.inject ~measurement (spec_of ~dropout:0.10 ~outliers:0.01)
      (Rng.create 201) clean
  in
  let pr = Core.Robust.predict_all robust ~measured:inj.Timing.Faults.data in
  let meas_wc = Timing.Measurement.worst_case_error measurement ~kappa in
  let band =
    Array.map
      (fun e -> Float.min 0.99 (e +. (2.0 *. meas_wc /. t_cons)))
      sel.Core.Select.per_path_eps
  in
  let report =
    Core.Guardband.analyze ~truth ~predicted:pr.Core.Robust.predicted ~eps:band
      ~t_cons
  in
  Printf.fprintf oc
    "guard band + screen (10%% dropout, 1%% outliers, path-RO sensor): \
     detection %.2f%%, false alarms %.3f%%\n"
    (100.0 *. report.Core.Guardband.detection_rate)
    (100.0 *. report.Core.Guardband.false_alarm_rate);
  flush oc;
  rows
