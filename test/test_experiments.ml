(* Smoke tests for the experiment harness: every runner must execute on
   a miniature profile and produce structurally sane rows. Output is
   swallowed into a devnull channel. *)

let tiny_profile =
  {
    Experiments.Profile.name = "tiny";
    scale_of = (fun _ -> 0.12);
    max_paths = 150;
    mc_samples = 200;
    yield_samples = 60;
    benches =
      List.filter
        (fun p ->
          List.mem p.Circuit.Benchmarks.bench_name [ "s1196"; "s1423" ])
        Circuit.Benchmarks.all;
  }

let devnull () = open_out Filename.null

let test_table1_runner () =
  let oc = devnull () in
  let rows = Experiments.Table1.run ~oc tiny_profile in
  close_out oc;
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      if r.Experiments.Table1.n_approx > r.Experiments.Table1.n_exact then
        Alcotest.fail "approx larger than exact";
      if r.Experiments.Table1.n_exact > r.Experiments.Table1.n_target then
        Alcotest.fail "exact larger than target";
      if r.Experiments.Table1.e1_pct < 0.0 then Alcotest.fail "negative e1";
      if r.Experiments.Table1.e2_pct > r.Experiments.Table1.e1_pct +. 1e-9 then
        Alcotest.fail "e2 above e1")
    rows

let test_table2_runner () =
  let oc = devnull () in
  let rows = Experiments.Table2.run ~oc tiny_profile in
  close_out oc;
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "total = paths + segments"
        (r.Experiments.Table2.hybrid_paths + r.Experiments.Table2.hybrid_segments)
        r.Experiments.Table2.hybrid_total;
      if r.Experiments.Table2.covered_gates > r.Experiments.Table2.gates then
        Alcotest.fail "covered gates exceed gates")
    rows

let test_figure2_runner () =
  let oc = devnull () in
  let series = Experiments.Figure2.run ~oc tiny_profile in
  close_out oc;
  Alcotest.(check int) "two series" 2 (List.length series);
  List.iter
    (fun s ->
      let v = s.Experiments.Figure2.values in
      if Array.length v = 0 then Alcotest.fail "empty series";
      Array.iteri
        (fun i x ->
          if x < 0.0 then Alcotest.fail "negative normalized value";
          if i > 0 && x > v.(i - 1) +. 1e-12 then Alcotest.fail "series not sorted")
        v;
      if s.Experiments.Figure2.effective_rank > s.Experiments.Figure2.rank then
        Alcotest.fail "effective rank above rank")
    series;
  (* the boosted-random series must decay slower *)
  match series with
  | [ a; b ] ->
    Alcotest.(check bool) "3x random flattens the spectrum" true
      (b.Experiments.Figure2.effective_rank >= a.Experiments.Figure2.effective_rank)
  | _ -> Alcotest.fail "expected two series"

let test_guardband_runner () =
  let oc = devnull () in
  let rows = Experiments.Guardband_exp.run ~oc tiny_profile in
  close_out oc;
  Alcotest.(check bool) "rows produced" true (rows <> []);
  List.iter
    (fun r ->
      if r.Experiments.Guardband_exp.detection_rate < 0.95 then
        Alcotest.failf "detection %.3f too low" r.Experiments.Guardband_exp.detection_rate)
    rows

let test_ablation_runners () =
  let oc = devnull () in
  let sched = Experiments.Ablation.run_schedule ~oc tiny_profile in
  let etas = Experiments.Ablation.run_eta ~oc tiny_profile in
  close_out oc;
  List.iter
    (fun r ->
      if abs (r.Experiments.Ablation.linear_r - r.Experiments.Ablation.bisect_r) > 1 then
        Alcotest.fail "schedules disagree";
      if r.Experiments.Ablation.bisect_evals > r.Experiments.Ablation.linear_evals then
        Alcotest.fail "bisection not cheaper")
    sched;
  let ranks = List.map (fun e -> e.Experiments.Ablation.effective_rank) etas in
  let rec non_increasing = function
    | a :: b :: rest -> a >= b && non_increasing (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "eta sweep monotone" true (non_increasing ranks)

let test_robustness_ssta_runner () =
  let oc = devnull () in
  let rows = Experiments.Robustness.run_ssta ~oc tiny_profile in
  close_out oc;
  let rec increasing f = function
    | a :: b :: rest -> f a <= f b +. 1e-9 && increasing f (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ssta yields increase with T" true
    (increasing (fun r -> r.Experiments.Robustness.ssta_yield) rows);
  List.iter
    (fun r ->
      if Float.abs (r.Experiments.Robustness.ssta_yield
                    -. r.Experiments.Robustness.mc_yield) > 0.15 then
        Alcotest.failf "SSTA and MC yields diverge: %.3f vs %.3f"
          r.Experiments.Robustness.ssta_yield r.Experiments.Robustness.mc_yield)
    rows

(* ---- the served-soak lifecycle, on the committed demo circuit ---- *)

module Soak = Experiments.Soak

let demo_artifact =
  lazy
    (Option.map
       (fun dir ->
         let netlist =
           fst
             (Core.Errors.get_ok
                (Core.Errors.parse_bench_file (Filename.concat dir "demo90.bench")))
         in
         let model = Timing.Variation.make_model ~levels:3 () in
         let setup = Core.Pipeline.prepare ~netlist ~model ~yield_samples:120 () in
         let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
         let pool = setup.Core.Pipeline.pool in
         Store.of_selection ~fingerprint:"test:soak demo90"
           ~n_segments:(Timing.Paths.num_segments pool)
           ~t_cons:setup.Core.Pipeline.t_cons ~eps:0.05
           ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) sel)
       (Lazy.force Test_golden.data_dir))

let with_soak f =
  match Lazy.force demo_artifact with
  | None -> ()
  | Some artifact -> Soak.with_session artifact f

let sock_path s = match Soak.addr s with Serve.Unix_sock p -> p | _ -> assert false

let check_exit what want got = Alcotest.(check bool) what true (got = want)

let test_soak_raise_kills_child () =
  let pid = ref 0 and files = ref [] in
  (match
     with_soak (fun s ->
         pid := Soak.spawn s;
         Serve.Client.close (Soak.connect s);
         files := [ Soak.artifact_path s; sock_path s ];
         List.iter
           (fun f -> Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
           !files;
         raise Exit)
   with
   | () -> if !pid <> 0 then Alcotest.fail "the body's exception was swallowed"
   | exception Exit -> ());
  (match Unix.kill !pid 0 with
   | () -> Alcotest.failf "server child %d still alive" !pid
   | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " removed") false (Sys.file_exists f))
    !files

let test_soak_clean_drain () =
  with_soak (fun s ->
      let pid = Soak.spawn s in
      Soak.drain s;
      check_exit "clean" Soak.Clean (Soak.reap s pid))

let test_soak_sigkill () =
  with_soak (fun s ->
      let pid = Soak.spawn s in
      Serve.Client.close (Soak.connect s);
      Unix.kill pid Sys.sigkill;
      check_exit "killed" Soak.Killed (Soak.reap s pid))

let test_soak_failed_server () =
  with_soak (fun s ->
      (* the socket's directory is gone: Serve.run cannot listen *)
      Sys.remove (Soak.artifact_path s);
      Unix.rmdir (Soak.dir s);
      let pid = Soak.spawn s in
      check_exit "failed" Soak.Failed (Soak.reap s pid))

(* the reason children are exec'd, not forked: OCaml 5 refuses to fork
   once a domain exists *)
let test_soak_after_domains () =
  let saved = Par.Pool.size () in
  Fun.protect ~finally:(fun () -> Par.Pool.set_size saved) @@ fun () ->
  Par.Pool.set_size 2;
  Par.Pool.parallel_for 0 64 ignore;
  with_soak (fun s ->
      let pid = Soak.spawn s in
      Soak.drain s;
      check_exit "clean" Soak.Clean (Soak.reap s pid))

let test_child_exit_status () =
  let status f = snd (Unix.waitpid [] (Soak.child f)) in
  Alcotest.(check bool) "returns: exit 0" true (status ignore = Unix.WEXITED 0);
  Alcotest.(check bool) "raises: exit 1" true
    (status (fun () -> raise Exit) = Unix.WEXITED 1)

let soak_tests =
  [
    ("body raising kills and reaps the server", test_soak_raise_kills_child);
    ("clean drain exits clean", test_soak_clean_drain);
    ("SIGKILL classifies as killed", test_soak_sigkill);
    ("failing Serve.run classifies as failed", test_soak_failed_server);
    ("spawn works after pool domains exist", test_soak_after_domains);
    ("child exits 0 on return, 1 on raise", test_child_exit_status);
  ]

let unit_tests =
  [
    ("experiments: table1 runner", test_table1_runner);
    ("experiments: table2 runner", test_table2_runner);
    ("experiments: figure2 runner", test_figure2_runner);
    ("experiments: guardband runner", test_guardband_runner);
    ("experiments: ablation runners", test_ablation_runners);
    ("experiments: ssta validation runner", test_robustness_ssta_runner);
  ]

let suites =
  [
    ( "experiments",
      List.map (fun (name, f) -> Alcotest.test_case name `Slow f) unit_tests );
    ("soak", List.map (fun (name, f) -> Alcotest.test_case name `Quick f) soak_tests);
  ]
