(* Fault injection, the robust predictor, and the typed error layer. *)

let make_pool seed gates =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = gates; seed; depth = 8;
        num_inputs = 10; num_outputs = 8 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_model.build nl model in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r = Timing.Path_extract.extract ~max_paths:400 dm ~t_cons ~yield_threshold:0.99 in
  match r.Timing.Path_extract.paths with
  | [] -> None
  | paths -> Some (t_cons, Timing.Paths.build dm paths)

let robust_fixture seed =
  match make_pool seed 90 with
  | None -> None
  | Some (t_cons, pool) ->
    let a = Timing.Paths.a_mat pool in
    let mu = Timing.Paths.mu_paths pool in
    let sel = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons () in
    let robust = Core.Robust.of_predictor sel.Core.Select.predictor in
    let mc = Timing.Monte_carlo.sample (Rng.create (seed + 77)) pool ~n:300 in
    let d = Timing.Monte_carlo.path_delays mc in
    let p = sel.Core.Select.predictor in
    let measured = Linalg.Mat.select_cols d (Core.Predictor.rep_indices p) in
    let truth = Linalg.Mat.select_cols d (Core.Predictor.rem_indices p) in
    Some (p, robust, measured, truth)

(* ------------------------------------------------------------------ *)
(* Faults *)

let test_faults_validate () =
  Timing.Faults.validate Timing.Faults.none;
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Faults: path_dropout must be in [0, 1], got 1.5")
    (fun () ->
      Timing.Faults.validate
        { Timing.Faults.none with Timing.Faults.path_dropout = 1.5 });
  Alcotest.check_raises "negative drift"
    (Invalid_argument "Faults: drift_sigma_ps must be non-negative") (fun () ->
      Timing.Faults.validate
        { Timing.Faults.none with Timing.Faults.drift_sigma_ps = -1.0 })

let test_faults_of_string () =
  (match Timing.Faults.of_string "dropout=0.1,outliers=0.01,stuck=0.005" with
   | Error m -> Alcotest.failf "spec rejected: %s" m
   | Ok sp ->
     Alcotest.(check (float 1e-12)) "dropout" 0.1 sp.Timing.Faults.path_dropout;
     Alcotest.(check (float 1e-12)) "outliers" 0.01 sp.Timing.Faults.outlier_rate;
     Alcotest.(check (float 1e-12)) "stuck" 0.005 sp.Timing.Faults.stuck_rate;
     (* round trip *)
     (match Timing.Faults.of_string (Timing.Faults.to_string sp) with
      | Error m -> Alcotest.failf "round trip rejected: %s" m
      | Ok sp' -> Alcotest.(check bool) "round trip" true (sp = sp')));
  (match Timing.Faults.of_string "bogus=1" with
   | Ok _ -> Alcotest.fail "unknown field accepted"
   | Error _ -> ());
  match Timing.Faults.of_string "dropout=lots" with
  | Ok _ -> Alcotest.fail "malformed number accepted"
  | Error _ -> ()

let test_faults_inject_identity () =
  let clean = Linalg.Mat.init 30 8 (fun i j -> 100.0 +. float_of_int ((7 * i) + j)) in
  let inj = Timing.Faults.inject Timing.Faults.none (Rng.create 3) clean in
  let stats = inj.Timing.Faults.stats in
  Alcotest.(check int) "no missing" 0 stats.Timing.Faults.missing_entries;
  Alcotest.(check int) "no outliers" 0 stats.Timing.Faults.outlier_entries;
  Alcotest.(check int) "total" 240 stats.Timing.Faults.total_entries;
  for i = 0 to 29 do
    for j = 0 to 7 do
      Alcotest.(check (float 0.0)) "entry unchanged" (Linalg.Mat.get clean i j)
        (Linalg.Mat.get inj.Timing.Faults.data i j);
      Alcotest.(check bool) "mask true" true inj.Timing.Faults.mask.(i).(j)
    done
  done

let test_faults_inject_rates () =
  let clean = Linalg.Mat.init 200 20 (fun _ _ -> 250.0) in
  let spec =
    { Timing.Faults.none with Timing.Faults.path_dropout = 0.1; outlier_rate = 0.05 }
  in
  let inj = Timing.Faults.inject spec (Rng.create 11) clean in
  let stats = inj.Timing.Faults.stats in
  let total = float_of_int stats.Timing.Faults.total_entries in
  let miss_rate = float_of_int stats.Timing.Faults.missing_entries /. total in
  Alcotest.(check bool) "dropout rate in range" true
    (miss_rate > 0.07 && miss_rate < 0.13);
  (* mask and nan encoding agree *)
  let nan_count = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j present ->
          let v = Linalg.Mat.get inj.Timing.Faults.data i j in
          if Float.is_nan v then incr nan_count;
          Alcotest.(check bool) "mask iff finite" present (not (Float.is_nan v)))
        row)
    inj.Timing.Faults.mask;
  Alcotest.(check int) "nan count = missing" stats.Timing.Faults.missing_entries
    !nan_count

(* ------------------------------------------------------------------ *)
(* Robust predictor *)

(* Zero faults => the robust layer must reproduce the plain Theorem-2
   predictor bit-for-bit, over random circuits. *)
let prop_clean_bit_for_bit =
  QCheck.Test.make ~count:8 ~name:"Robust = Predictor on clean data (bit-for-bit)"
    QCheck.(int_range 1 300)
    (fun seed ->
      match robust_fixture seed with
      | None -> true
      | Some (p, robust, measured, _) ->
        let expected = Core.Predictor.predict_all p ~measured in
        let pr = Core.Robust.predict_all robust ~measured in
        let n, k = Linalg.Mat.dims expected in
        let ok = ref pr.Core.Robust.screened.Core.Robust.clean in
        for i = 0 to n - 1 do
          for j = 0 to k - 1 do
            if Linalg.Mat.get expected i j
               <> Linalg.Mat.get pr.Core.Robust.predicted i j
            then ok := false
          done
        done;
        !ok)

(* More dropout must not make the robust predictor more accurate. *)
let prop_monotone_dropout =
  QCheck.Test.make ~count:5 ~name:"Robust e2 degrades monotonically in dropout"
    QCheck.(int_range 1 200)
    (fun seed ->
      match robust_fixture seed with
      | None -> true
      | Some (_, robust, measured, truth) ->
        let e2_at rate =
          let spec =
            { Timing.Faults.none with Timing.Faults.path_dropout = rate }
          in
          let inj = Timing.Faults.inject spec (Rng.create 5) measured in
          let pr =
            Core.Robust.predict_all robust ~measured:inj.Timing.Faults.data
          in
          (Core.Robust.metrics pr ~truth).Core.Evaluate.e2
        in
        let e2s = List.map e2_at [ 0.0; 0.1; 0.35; 0.7 ] in
        (* allow a hair of slack: a higher rate resamples the fault
           pattern, so tiny non-monotonic wiggles are possible *)
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b +. 0.002 && mono rest
          | _ -> true
        in
        List.for_all Float.is_finite e2s && mono e2s)

let test_screen_planted_outliers () =
  match robust_fixture 17 with
  | None -> Alcotest.fail "fixture produced no paths"
  | Some (_, robust, measured, _) ->
    let n, r = Linalg.Mat.dims measured in
    let clean_screen = Core.Robust.screen robust ~measured in
    Alcotest.(check bool) "clean data screens clean" true
      clean_screen.Core.Robust.clean;
    (* plant gross outliers on known entries *)
    let planted = [ (0, 0); (n / 2, r - 1); (n - 1, 0) ] in
    let dirty =
      Linalg.Mat.init n r (fun i j ->
          let v = Linalg.Mat.get measured i j in
          if List.mem (i, j) planted then 3.0 *. v else v)
    in
    let s = Core.Robust.screen robust ~measured:dirty in
    Alcotest.(check bool) "screen not clean" false s.Core.Robust.clean;
    List.iter
      (fun (i, j) ->
        Alcotest.(check bool)
          (Printf.sprintf "outlier (%d,%d) rejected" i j)
          false s.Core.Robust.mask.(i).(j))
      planted;
    Alcotest.(check int) "no false alarms" (List.length planted)
      s.Core.Robust.outliers

let test_ridge_fallback () =
  match robust_fixture 23 with
  | None -> Alcotest.fail "fixture produced no paths"
  | Some (_, robust, measured, truth) ->
    let spec = { Timing.Faults.none with Timing.Faults.path_dropout = 0.3 } in
    let inj = Timing.Faults.inject spec (Rng.create 9) measured in
    (* a cond limit just above 1 declares every reduced Gram
       ill-conditioned, so each reduced solve must take the ridge path
       and still produce finite predictions *)
    let pr =
      Core.Robust.predict_all ~cond_limit:1.0000001 robust
        ~measured:inj.Timing.Faults.data
    in
    Alcotest.(check bool) "ridge used" true (pr.Core.Robust.ridge_fallbacks > 0);
    (* 1x1 reduced systems have condition exactly 1 and may skip the
       ridge; everything larger must take it *)
    Alcotest.(check bool) "ridge bounded by solves" true
      (pr.Core.Robust.ridge_fallbacks <= pr.Core.Robust.resolves);
    let m = Core.Robust.metrics pr ~truth in
    Alcotest.(check bool) "metrics finite" true
      (Float.is_finite m.Core.Evaluate.e1 && Float.is_finite m.Core.Evaluate.e2)

(* ------------------------------------------------------------------ *)
(* demo90 acceptance: 10% dropout + 1% outliers *)

let data_dir =
  let candidates =
    [ "examples/data"; "../examples/data"; "../../examples/data";
      "../../../examples/data"; "../../../../examples/data" ]
  in
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists (Filename.concat d "demo90.bench"))
       candidates)

let with_data f =
  match Lazy.force data_dir with Some dir -> f dir | None -> ()

let test_demo90_acceptance () =
  with_data (fun dir ->
      let nl =
        fst
          (Core.Errors.get_ok
             (Core.Errors.parse_bench_file (Filename.concat dir "demo90.bench")))
      in
      let model = Timing.Variation.make_model ~levels:3 () in
      let setup =
        Core.Pipeline.prepare ~max_paths:400 ~yield_samples:150 ~netlist:nl
          ~model ()
      in
      let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
      let p = sel.Core.Select.predictor in
      let robust = Core.Robust.of_predictor p in
      let mc = Core.Pipeline.draw setup in
      let d = Timing.Monte_carlo.path_delays mc in
      let measured = Linalg.Mat.select_cols d (Core.Predictor.rep_indices p) in
      let truth = Linalg.Mat.select_cols d (Core.Predictor.rem_indices p) in
      let clean = Core.Evaluate.of_predictions ~truth
          ~predicted:(Core.Predictor.predict_all p ~measured)
      in
      let spec =
        match Timing.Faults.of_string "dropout=0.1,outliers=0.01" with
        | Ok sp -> sp
        | Error m -> Alcotest.failf "spec: %s" m
      in
      let inj = Timing.Faults.inject spec (Rng.create 43) measured in
      Alcotest.(check bool) "faults actually injected" true
        (inj.Timing.Faults.stats.Timing.Faults.missing_entries > 0
        && inj.Timing.Faults.stats.Timing.Faults.outlier_entries > 0);
      (* the robust path completes with a bounded margin over clean *)
      let pr = Core.Robust.predict_all robust ~measured:inj.Timing.Faults.data in
      let m = Core.Robust.metrics pr ~truth in
      Alcotest.(check bool) "robust e2 bounded" true
        (Float.is_finite m.Core.Evaluate.e2
        && m.Core.Evaluate.e2 <= clean.Core.Evaluate.e2 +. 0.05);
      Alcotest.(check bool) "robust e1 finite" true
        (Float.is_finite m.Core.Evaluate.e1);
      (* the naive path must fail on the same data *)
      match
        Core.Evaluate.of_predictions ~truth
          ~predicted:(Core.Predictor.predict_all p ~measured:inj.Timing.Faults.data)
      with
      | _ -> Alcotest.fail "naive predictor accepted non-finite data"
      | exception Core.Errors.Error (Core.Errors.Bad_data _) -> ())

(* ------------------------------------------------------------------ *)
(* Errors + lenient ingestion *)

let dirty_bench =
  "INPUT(a)\nINPUT(b)\nthis is not a bench line\nc = AND(a, b)\n\
   d = FROBGATE(a, b)\ne = OR(c, ghost)\nOUTPUT(c)\nOUTPUT(e)\n"

let test_lenient_bench () =
  (* strict parse rejects the garbage line, with its line number *)
  (match Circuit.Bench_io.parse ~name:"dirty" dirty_bench with
   | _ -> Alcotest.fail "strict parse accepted garbage"
   | exception Circuit.Bench_io.Parse_error (3, _) -> ()
   | exception Circuit.Bench_io.Parse_error (l, m) ->
     Alcotest.failf "wrong position %d: %s" l m);
  (* lenient parse survives, warns, and keeps the usable gate *)
  let nl, warnings = Circuit.Bench_io.parse_lenient ~name:"dirty" dirty_bench in
  Alcotest.(check bool) "warned" true (List.length warnings >= 3);
  Alcotest.(check int) "one usable gate" 1 (Circuit.Netlist.num_gates nl)

(* occurrences of [sub] in [s] *)
let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* a missing input is [Io] with exit 66, and its message names the path
   once: the OS reason carries no second copy of it *)
let check_missing label path = function
  | Ok _ -> Alcotest.failf "%s: missing file read" label
  | Error e ->
    (match e with
     | Core.Errors.Io _ -> ()
     | other -> Alcotest.failf "%s: wrong class: %s" label (Core.Errors.to_string other));
    Alcotest.(check int) (label ^ ": missing input exit code") 66
      (Core.Errors.exit_code e);
    Alcotest.(check int) (label ^ ": path named once") 1
      (count_sub (Core.Errors.to_string e) path)

let test_error_wrappers () =
  check_missing "bench" "/nonexistent/x.bench"
    (Core.Errors.parse_bench_file "/nonexistent/x.bench");
  check_missing "artifact" "/nonexistent/x.psa" (Store.load "/nonexistent/x.psa");
  let tmp = Filename.temp_file "dirty" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc dirty_bench;
      close_out oc;
      (match Core.Errors.parse_bench_file tmp with
       | Ok _ -> Alcotest.fail "strict wrapper accepted garbage"
       | Error (Core.Errors.Parse { line = Some 3; _ } as e) ->
         Alcotest.(check int) "data exit code" 65 (Core.Errors.exit_code e);
         let msg = Core.Errors.to_string e in
         Alcotest.(check bool) "message is file:line: reason" true
           (String.starts_with ~prefix:(tmp ^ ":3: ") msg);
         Alcotest.(check int) "file named once" 1 (count_sub msg tmp)
       | Error e -> Alcotest.failf "wrong error: %s" (Core.Errors.to_string e));
      match Core.Errors.parse_bench_file ~lenient:true tmp with
      | Ok (nl, warnings) ->
        Alcotest.(check int) "lenient gate" 1 (Circuit.Netlist.num_gates nl);
        Alcotest.(check bool) "lenient warns" true (warnings <> [])
      | Error e -> Alcotest.failf "lenient failed: %s" (Core.Errors.to_string e))

let test_no_critical_paths_error () =
  let nl =
    Circuit.Generator.generate { Circuit.Generator.default with num_gates = 60 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  (* a hugely relaxed constraint leaves no statistically-critical path *)
  (match
     Core.Pipeline.prepare ~t_cons_scale:50.0 ~yield_samples:60 ~netlist:nl
       ~model ()
   with
   | _ -> Alcotest.fail "expected No_critical_paths"
   | exception Core.Errors.Error (Core.Errors.No_critical_paths _) -> ());
  match
    Core.Pipeline.prepare_result ~t_cons_scale:50.0 ~yield_samples:60 ~netlist:nl
      ~model ()
  with
  | Ok _ -> Alcotest.fail "expected error result"
  | Error e -> Alcotest.(check int) "exit code" 65 (Core.Errors.exit_code e)

let test_svd_rejects_nan () =
  let a = Linalg.Mat.init 4 3 (fun i j -> if i = 2 && j = 1 then Float.nan else 1.0) in
  match Linalg.Svd.factor a with
  | _ -> Alcotest.fail "factor accepted NaN"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "validate" `Quick test_faults_validate;
        Alcotest.test_case "of_string" `Quick test_faults_of_string;
        Alcotest.test_case "inject: none is identity" `Quick
          test_faults_inject_identity;
        Alcotest.test_case "inject: rates and mask" `Quick test_faults_inject_rates;
      ] );
    ( "robust",
      [
        QCheck_alcotest.to_alcotest prop_clean_bit_for_bit;
        QCheck_alcotest.to_alcotest prop_monotone_dropout;
        Alcotest.test_case "screen: planted outliers" `Quick
          test_screen_planted_outliers;
        Alcotest.test_case "ridge fallback" `Quick test_ridge_fallback;
        Alcotest.test_case "demo90: 10% dropout + 1% outliers" `Quick
          test_demo90_acceptance;
      ] );
    ( "errors",
      [
        Alcotest.test_case "lenient bench parse" `Quick test_lenient_bench;
        Alcotest.test_case "typed wrappers + exit codes" `Quick test_error_wrappers;
        Alcotest.test_case "no critical paths" `Quick test_no_critical_paths_error;
        Alcotest.test_case "svd rejects NaN" `Quick test_svd_rejects_nan;
      ] );
  ]
