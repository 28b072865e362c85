type result = {
  bench : string;
  n_paths : int;
  shift : string;
  pre_drift_dies : int;
  baseline_err_ps : float;
  detection_dies : int;
  detection_bound : int;
  recovered : bool;
  recovery_err_ps : float;
  recovery_ratio : float;
  reselects : int;
  reselect_failures : int;
  reselect_ms : float;
  generation : int;
  wrong_answers : int;
  request_failures : int;
  server_exit_ok : bool;
  ok : bool;
}

let eps = 0.05

(* the recovered predictor must land within this factor of the healthy
   baseline error *)
let recovery_gate = 1.2

let rows_of m i0 k = Linalg.Mat.select_rows m (Array.init k (( + ) i0))

let mean_abs_err pred truth =
  let n, m = Linalg.Mat.dims pred in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      acc := !acc +. Float.abs (Linalg.Mat.get pred i j -. Linalg.Mat.get truth i j)
    done
  done;
  !acc /. float_of_int (n * m)

let run ?(oc = stdout) ?out profile =
  Soak.single_domain ();
  let quick = profile.Profile.name <> "full" in
  let batch = 16 in
  let pre_batches = if quick then 10 else 16 in
  let post_batches = if quick then 24 else 40 in
  let holdout = if quick then 48 else 96 in
  let detection_bound = 6 * batch in
  let bench_name = "s1423" in
  let pre_drift_dies = pre_batches * batch in
  Printf.fprintf oc
    "E17: self-healing soak (%s; %d healthy dies, process shift, up to %d \
     shifted dies, auto re-selection armed)\n%!"
    bench_name pre_drift_dies (post_batches * batch);
  let setup = Table1.setup profile bench_name in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  let pool = setup.Core.Pipeline.pool in
  let t_cons = setup.Core.Pipeline.t_cons in
  let artifact = Soak.artifact ~fingerprint:"bench:e17 s1423" ~eps setup sel in
  let n_paths = artifact.Store.n_paths in
  let monitor_cfg =
    {
      Serve.Monitor.default_config with
      Serve.Monitor.calibrate = 32;
      min_dies = 64;
      buffer = 160;
      refit_min = 16;
      cooldown = 0.4;
    }
  in
  let config =
    { Serve.default_config with
      Serve.workers = 2; deadline = 10.0; idle_timeout = 60.0;
      monitor = Some monitor_cfg }
  in
  (* ---- die populations: healthy stream + holdout, then the shifted
     world. The process shift is a frozen per-path sensitivity scale
     (systematic slowdown, path-dependent) on top of which every
     streamed die carries Timing.Faults' per-die calibration drift. *)
  let dies_of seed n =
    Timing.Monte_carlo.path_delays (Timing.Monte_carlo.sample (Rng.create seed) pool ~n)
  in
  let d_pre = dies_of 1701 pre_drift_dies in
  let d_pre_hold = dies_of 1702 holdout in
  let shift_rng = Rng.create 1703 in
  let factor =
    Array.init n_paths (fun _ -> 1.06 +. (0.02 *. Rng.gaussian shift_rng))
  in
  let drift_sigma_ps = 0.005 *. t_cons in
  let fault_spec =
    { Timing.Faults.none with Timing.Faults.drift_sigma_ps }
  in
  let scale_paths m =
    let r, c = Linalg.Mat.dims m in
    Linalg.Mat.init r c (fun i j -> Linalg.Mat.get m i j *. factor.(j))
  in
  let d_post =
    (Timing.Faults.inject fault_spec (Rng.create 1704)
       (scale_paths (dies_of 1705 (post_batches * batch))))
      .Timing.Faults.data
  in
  (* the holdout the recovered predictor is scored on: shift only, no
     per-die drift noise, so the ratio gate is stable *)
  let d_post_hold = scale_paths (dies_of 1706 holdout) in
  let shift_desc =
    Printf.sprintf "per-path scale ~ N(1.06, 0.02) + per-die drift N(0, %.1f ps)"
      drift_sigma_ps
  in
  Soak.with_session artifact @@ fun soak ->
  (* the artifact file doubles as the reload path the background
     re-selection writes through *)
  let store_path = Soak.artifact_path soak in
  let pid = Soak.spawn ~config ~reload_from:store_path soak in
  let conn = Soak.connect soak in
  let failures = ref 0 in
  let wrong = ref 0 in
  (* the client tracks the serving split through the artifact file: a
     generation change in a response means the server hot-swapped, so
     the representative set (and observe's column layout) may differ *)
  let split_of store =
    let p = Store.predictor store in
    (p, Core.Predictor.rep_indices p, Core.Predictor.rem_indices p)
  in
  let cur_gen = ref 1 in
  let cur = ref (split_of artifact) in
  let refresh_split () =
    match Store.load store_path with
    | Ok s -> cur := split_of s
    | Error _ -> ()
  in
  let note_gen resp =
    let g = Soak.int_stat resp "gen" in
    if g > !cur_gen then begin
      cur_gen := g;
      refresh_split ()
    end
  in
  let observe_rows rows =
    let send () =
      let _, rep, rem = !cur in
      Serve.Client.observe conn
        ~measured:(Linalg.Mat.select_cols rows rep)
        ~truth:(Linalg.Mat.select_cols rows rem)
    in
    match send () with
    | Ok resp -> note_gen resp
    | Error _ ->
      (* most likely a stale split across a hot swap: re-read the
         artifact and retry once before calling it a failure *)
      refresh_split ();
      (match send () with
       | Ok resp -> note_gen resp
       | Error _ -> incr failures)
  in
  let server_stats () =
    match Serve.Client.stats conn with
    | Ok resp ->
      note_gen resp;
      Some resp
    | Error _ ->
      incr failures;
      None
  in
  let predict_scored ~predictor ~measured ~truth =
    match Serve.Client.predict conn measured with
    | Ok (m, _resp) ->
      if not (Linalg.Mat.bits_equal m (Core.Predictor.predict_all predictor ~measured))
      then incr wrong;
      mean_abs_err m truth
    | Error _ ->
      incr failures;
      Float.nan
  in
  let finish () =
    (* ---- phase A: healthy stream calibrates the detector, then the
       pre-drift baseline error is taken on a holdout batch *)
    for k = 0 to pre_batches - 1 do
      observe_rows (rows_of d_pre (k * batch) batch);
      Thread.delay 0.02
    done;
    Thread.delay 0.5;
    (match server_stats () with
     | Some resp ->
       (match Serve.Wire.member "monitor" resp with
        | Some mon ->
          Printf.fprintf oc
            "healthy stream: %d dies observed, state %s (calibrating %s)\n%!"
            (Soak.int_stat mon "observed") (Soak.string_member mon "state")
            (match Serve.Wire.member "calibrating" mon with
             | Some (Serve.Wire.Bool b) -> string_of_bool b
             | _ -> "?")
        | None -> Printf.fprintf oc "WARNING: monitor missing from stats\n%!")
     | None -> ());
    let p1, rep1, rem1 = !cur in
    let baseline_err_ps =
      predict_scored ~predictor:p1
        ~measured:(Linalg.Mat.select_cols d_pre_hold rep1)
        ~truth:(Linalg.Mat.select_cols d_pre_hold rem1)
    in
    Printf.fprintf oc "baseline: %.3f ps mean abs error on %d holdout dies\n%!"
      baseline_err_ps holdout;
    (* ---- phase B: the shifted world streams in; watch the detector
       leave healthy and the background re-selection swap artifacts *)
    let detection = ref (-1) in
    for k = 0 to post_batches - 1 do
      observe_rows (rows_of d_post (k * batch) batch);
      Thread.delay 0.15;
      match server_stats () with
      | Some resp ->
        (match Serve.Wire.member "monitor" resp with
         | Some mon ->
           let st = Soak.string_member mon "state" in
           let resel = Soak.int_stat mon "reselects" in
           if !detection < 0 && (st <> "healthy" || resel > 0) then begin
             detection := (k + 1) * batch;
             Printf.fprintf oc
               "shift detected within %d dies (state %s, cusum %.1f)\n%!"
               !detection st (Soak.float_member mon "cusum")
           end
         | None -> ())
      | None -> ()
    done;
    (* settle: allow an in-flight re-selection and its recalibration to
       complete before the final reading *)
    Thread.delay 1.0;
    let reselects, reselect_failures, reselect_ms, generation =
      match server_stats () with
      | Some resp ->
        let gen =
          match Serve.Wire.member "artifact" resp with
          | Some art -> Soak.int_stat art "generation"
          | None -> 0
        in
        (match Serve.Wire.member "monitor" resp with
         | Some mon ->
           ( Soak.int_stat mon "reselects",
             Soak.int_stat mon "reselect_failures",
             Soak.float_member mon "last_reselect_ms",
             gen )
         | None -> (0, 0, Float.nan, gen))
      | None -> (0, 0, Float.nan, 0)
    in
    (* ---- phase C: the swapped-in artifact (re-read from the shared
       file) must predict the shifted world within the recovery gate *)
    let recovered_artifact =
      if reselects >= 1 then
        match Store.load store_path with
        | Ok s ->
          let has_marker =
            let marker = "[reselect" in
            let fp = s.Store.fingerprint in
            let lm = String.length marker and n = String.length fp in
            let rec go i =
              i + lm <= n && (String.sub fp i lm = marker || go (i + 1))
            in
            go 0
          in
          if has_marker then Some s else None
        | Error _ -> None
      else None
    in
    let recovered = Option.is_some recovered_artifact && generation >= 2 in
    let recovery_err_ps =
      match recovered_artifact with
      | Some s ->
        let p2, rep2, rem2 = split_of s in
        predict_scored ~predictor:p2
          ~measured:(Linalg.Mat.select_cols d_post_hold rep2)
          ~truth:(Linalg.Mat.select_cols d_post_hold rem2)
      | None -> Float.nan
    in
    Printf.fprintf oc
      "recovery: %d reselect(s) (%d failed), generation %d, %.0f ms wall; \
       %.3f ps on shifted holdout\n%!"
      reselects reselect_failures generation reselect_ms recovery_err_ps;
    Serve.Client.close conn;
    Soak.drain soak;
    ( baseline_err_ps, !detection, reselects, reselect_failures, reselect_ms,
      generation, recovered, recovery_err_ps )
  in
  let ( baseline_err_ps, detection_dies, reselects, reselect_failures,
        reselect_ms, generation, recovered, recovery_err_ps ) =
    finish ()
  in
  let server_exit_ok = Soak.reap soak pid = Soak.Clean in
  let recovery_ratio = recovery_err_ps /. baseline_err_ps in
  let ok =
    detection_dies > 0
    && detection_dies <= detection_bound
    && recovered
    && Float.is_finite recovery_ratio
    && recovery_ratio <= recovery_gate
    && !wrong = 0 && !failures = 0 && server_exit_ok
  in
  Printf.fprintf oc
    "E17: detection %d dies (bound %d), recovery ratio %.3f (gate %.2f), \
     %d wrong, %d failed requests, server exit clean: %b\n"
    detection_dies detection_bound recovery_ratio recovery_gate !wrong
    !failures server_exit_ok;
  Printf.fprintf oc "E17 %s\n" (if ok then "ok" else "FAILED");
  flush oc;
  let result =
    {
      bench = bench_name;
      n_paths;
      shift = shift_desc;
      pre_drift_dies;
      baseline_err_ps;
      detection_dies;
      detection_bound;
      recovered;
      recovery_err_ps;
      recovery_ratio;
      reselects;
      reselect_failures;
      reselect_ms;
      generation;
      wrong_answers = !wrong;
      request_failures = !failures;
      server_exit_ok;
      ok;
    }
  in
  let timing_note =
    if Host.cores () = 1 then
      "1-core host (cf. BENCH_e15): reselect_ms is a serial upper bound; \
       detection_dies and the error gates are core-independent"
    else "multi-core host"
  in
  Soak.write ~oc ?out "E17"
    (let open Core.Report in
     [
       ("bench", String result.bench);
       ("timing_note", String timing_note);
       ("n_paths", Int result.n_paths);
       ("shift", String result.shift);
       ("pre_drift_dies", Int result.pre_drift_dies);
       ("baseline_err_ps", Float result.baseline_err_ps);
       ("detection_dies", Int result.detection_dies);
       ("detection_bound", Int result.detection_bound);
       ("recovered", Bool result.recovered);
       ("recovery_err_ps", Float result.recovery_err_ps);
       ("recovery_ratio", Float result.recovery_ratio);
       ("recovery_gate", Float recovery_gate);
       ("reselects", Int result.reselects);
       ("reselect_failures", Int result.reselect_failures);
       ("reselect_ms", Float result.reselect_ms);
       ("generation", Int result.generation);
       ("wrong_answers", Int result.wrong_answers);
       ("request_failures", Int result.request_failures);
       ("server_exit_ok", Bool result.server_exit_ok);
       ("ok", Bool result.ok);
     ]);
  result
