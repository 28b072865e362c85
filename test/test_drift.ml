(* Tests for the CUSUM drift detector (Stats.Drift): threshold
   boundaries, the Drifted latch, the variance-ratio channel, the
   zero-sigma degenerate reference, and the NaN quarantine fail-safe. *)

open Stats

let cfg ?(slack = 0.5) ?(warn = 4.0) ?(drift = 8.0) ?(window = 8)
    ?(var_ratio = 6.0) ?(max_bad = 3) () =
  {
    Drift.slack;
    warn;
    drift;
    window;
    var_ratio;
    max_consecutive_bad = max_bad;
  }

let state = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Drift.state_to_string s))
    (fun a b ->
      match (a, b) with
      | Drift.Healthy, Drift.Healthy
      | Drift.Warning, Drift.Warning
      | Drift.Drifted, Drift.Drifted -> true
      | (Drift.Healthy | Drift.Warning | Drift.Drifted), _ -> false)

let test_healthy_stream () =
  let d = Drift.create ~config:(cfg ()) ~mean:0.0 ~sigma:1.0 () in
  for i = 1 to 200 do
    let x = if i mod 2 = 0 then 0.3 else -0.3 in
    Alcotest.check state "stays healthy" Drift.Healthy (Drift.observe d x)
  done;
  Alcotest.(check int) "observed" 200 d.Drift.n;
  Alcotest.(check bool) "cusum stays small" true (Drift.cusum d < 1.0)

let test_mean_shift_progression () =
  (* z = 2 per observation, slack 0.5: the high side climbs 1.5/obs.
     warn=4 binds on the 3rd observation (4.5), drift=8 on the 6th (9). *)
  let d = Drift.create ~config:(cfg ~window:64 ()) ~mean:0.0 ~sigma:1.0 () in
  let states = Array.init 6 (fun _ -> Drift.observe d 2.0) in
  Alcotest.check state "still healthy at 3.0" Drift.Healthy states.(1);
  Alcotest.check state "warning at 4.5" Drift.Warning states.(2);
  Alcotest.check state "warning at 7.5" Drift.Warning states.(4);
  Alcotest.check state "drifted at 9.0" Drift.Drifted states.(5)

let test_negative_shift_detected () =
  let d = Drift.create ~config:(cfg ~window:64 ()) ~mean:0.0 ~sigma:1.0 () in
  for _ = 1 to 5 do ignore (Drift.observe d (-2.0)) done;
  Alcotest.check state "two-sided" Drift.Drifted (Drift.observe d (-2.0))

let test_threshold_boundary_inclusive () =
  (* slack 0, threshold 2: two unit steps land the statistic exactly on
     the boundary — Drifted must bind at >=, not >. *)
  let config = cfg ~slack:0.0 ~warn:2.0 ~drift:2.0 ~window:64 () in
  let d = Drift.create ~config ~mean:0.0 ~sigma:1.0 () in
  Alcotest.check state "below threshold" Drift.Healthy (Drift.observe d 1.0);
  Alcotest.check state "exactly at threshold" Drift.Drifted (Drift.observe d 1.0)

let test_latch () =
  let d = Drift.create ~config:(cfg ~window:64 ()) ~mean:0.0 ~sigma:1.0 () in
  for _ = 1 to 10 do ignore (Drift.observe d 2.0) done;
  Alcotest.check state "drifted" Drift.Drifted d.Drift.state;
  (* perfectly healthy residuals do not clear the latch *)
  for _ = 1 to 100 do
    Alcotest.check state "latched" Drift.Drifted (Drift.observe d 0.0)
  done

let test_zero_sigma_reference () =
  (* degenerate reference: healthy residuals are a point mass, so the
     floored sigma turns the first real departure into a huge step *)
  let d = Drift.create ~config:(cfg ()) ~mean:1.0 ~sigma:0.0 () in
  for _ = 1 to 50 do
    Alcotest.check state "point mass is healthy" Drift.Healthy
      (Drift.observe d 1.0)
  done;
  Alcotest.check state "any departure binds immediately" Drift.Drifted
    (Drift.observe d 1.000001)

let test_variance_blowup_without_mean_shift () =
  (* alternating +/-3 sigma keeps both CUSUM sides below warn (each
     step up is cancelled on the next observation) but the windowed
     variance ratio is ~9x the reference: the variance channel must
     catch what the mean channel cannot. *)
  let config = cfg ~window:8 ~var_ratio:6.0 () in
  let d = Drift.create ~config ~mean:0.0 ~sigma:1.0 () in
  for i = 1 to 7 do
    let x = if i mod 2 = 0 then 3.0 else -3.0 in
    Alcotest.check state "mean channel silent" Drift.Healthy (Drift.observe d x);
    Alcotest.(check bool) "no ratio before the window fills" true
      (Drift.variance_ratio d = None)
  done;
  Alcotest.check state "variance channel binds" Drift.Drifted
    (Drift.observe d 3.0);
  (match Drift.variance_ratio d with
   | Some r -> Alcotest.(check bool) "ratio ~ 9" true (r > 6.0 && r < 12.0)
   | None -> Alcotest.fail "window full but no ratio")

let test_nan_quarantine () =
  let d = Drift.create ~config:(cfg ~max_bad:3 ()) ~mean:0.0 ~sigma:1.0 () in
  ignore (Drift.observe d Float.nan);
  ignore (Drift.observe d Float.infinity);
  Alcotest.(check bool) "two bad, not yet quarantined" false d.Drift.quarantine;
  Alcotest.(check int) "bad counted" 2 d.Drift.bad;
  (* a finite residual resets the consecutive run *)
  ignore (Drift.observe d 0.0);
  ignore (Drift.observe d Float.nan);
  ignore (Drift.observe d Float.nan);
  Alcotest.(check bool) "run restarted" false d.Drift.quarantine;
  ignore (Drift.observe d Float.nan);
  Alcotest.(check bool) "third consecutive quarantines" true d.Drift.quarantine;
  Alcotest.(check int) "cumulative bad" 5 d.Drift.bad;
  (* quarantine freezes the detector: even a massive shift is ignored *)
  let n0 = d.Drift.n in
  Alcotest.check state "frozen" Drift.Healthy (Drift.observe d 1000.0);
  Alcotest.(check int) "frozen input not consumed" n0 d.Drift.n

let test_create_validation () =
  let rejects name f =
    match f () with
    | (_ : Drift.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative sigma" (fun () -> Drift.create ~mean:0.0 ~sigma:(-1.0) ());
  rejects "nan mean" (fun () -> Drift.create ~mean:Float.nan ~sigma:1.0 ());
  rejects "nan sigma" (fun () -> Drift.create ~mean:0.0 ~sigma:Float.nan ());
  rejects "warn above drift" (fun () ->
      Drift.create ~config:(cfg ~warn:9.0 ~drift:8.0 ()) ~mean:0.0 ~sigma:1.0 ());
  rejects "window of one" (fun () ->
      Drift.create ~config:(cfg ~window:1 ()) ~mean:0.0 ~sigma:1.0 ());
  rejects "nonpositive drift" (fun () ->
      Drift.create ~config:(cfg ~warn:0.0 ~drift:0.0 ()) ~mean:0.0 ~sigma:1.0 ());
  rejects "var_ratio at one" (fun () ->
      Drift.create ~config:(cfg ~var_ratio:1.0 ()) ~mean:0.0 ~sigma:1.0 ());
  rejects "bad run of zero" (fun () ->
      Drift.create ~config:(cfg ~max_bad:0 ()) ~mean:0.0 ~sigma:1.0 ());
  rejects "nan warn" (fun () ->
      Drift.create ~config:(cfg ~warn:Float.nan ()) ~mean:0.0 ~sigma:1.0 ());
  (* the standalone validator lets callers that defer detector creation
     (calibration) fail at configuration time *)
  match Drift.check_config (cfg ~warn:9.0 ~drift:8.0 ()) with
  | () -> Alcotest.fail "check_config: expected Invalid_argument"
  | exception Invalid_argument _ -> Drift.check_config (cfg ())

let suites =
  [
    ( "drift",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("healthy stream stays healthy", test_healthy_stream);
          ("mean shift walks warn then drifted", test_mean_shift_progression);
          ("negative shift detected", test_negative_shift_detected);
          ("drift boundary is inclusive", test_threshold_boundary_inclusive);
          ("drifted latches", test_latch);
          ("zero-sigma reference is floored", test_zero_sigma_reference);
          ("variance blow-up without mean shift", test_variance_blowup_without_mean_shift);
          ("nan quarantine", test_nan_quarantine);
          ("create validates inputs", test_create_validation);
        ] );
  ]
