(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation section
   (Table 1, Table 2, Figure 2, the Section-6.3 guard-band analysis),
   plus the E5/E6 ablations from DESIGN.md, and runs Bechamel
   micro-benchmarks of the computational kernels.

   Usage:
     dune exec bench/main.exe                     # everything, quick profile
     dune exec bench/main.exe -- table1           # one experiment
     dune exec bench/main.exe -- table2 --full    # paper-scale sizes
     dune exec bench/main.exe -- micro            # kernel timings only
     dune exec bench/main.exe -- e16 --smoke      # one experiment's CI gate *)

let () = Experiments.Soak.child_main ()

(* The dispatch table at the bottom is the single source of truth for
   the subcommand list: the usage string, the dispatch, and "all" are
   all generated from it, so they cannot drift apart. *)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels behind each experiment *)

let micro_fixture =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 300; seed = 4 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     let setup = Core.Pipeline.prepare ~yield_samples:120 ~netlist:nl ~model () in
     let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
     let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
     let svd = Linalg.Svd.factor a in
     (setup, a, mu, svd))

(* Unblocked triple loop, kept here only as the baseline row for the
   kernel benchmarks below. *)
let naive_mul a b =
  let m, k = Linalg.Mat.dims a in
  let k2, n = Linalg.Mat.dims b in
  assert (k = k2);
  Linalg.Mat.init m n (fun i j ->
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Linalg.Mat.get a i p *. Linalg.Mat.get b p j)
      done;
      !acc)

(* Dense-kernel rows: naive serial vs the cache-blocked kernel at 1 and
   4 pool domains. Each row carries the pool size to install before the
   measurement (None = leave the pool alone). *)
let kernel_tests () =
  let open Bechamel in
  let rng = Rng.create 41 in
  let dim = 256 in
  let a = Linalg.Mat.init dim dim (fun _ _ -> Rng.gaussian rng) in
  let b = Linalg.Mat.init dim dim (fun _ _ -> Rng.gaussian rng) in
  let at d name f = (Some d, Test.make ~name (Staged.stage f)) in
  [
    (None,
     Test.make ~name:"kernel:mul-naive-serial"
       (Staged.stage (fun () -> ignore (naive_mul a b))));
    at 1 "kernel:mul-blocked-1dom" (fun () -> ignore (Linalg.Mat.mul a b));
    at 4 "kernel:mul-blocked-4dom" (fun () -> ignore (Linalg.Mat.mul a b));
    at 1 "kernel:mul_nt-1dom" (fun () -> ignore (Linalg.Mat.mul_nt a b));
    at 4 "kernel:mul_nt-4dom" (fun () -> ignore (Linalg.Mat.mul_nt a b));
    at 1 "kernel:mul_tn-1dom" (fun () -> ignore (Linalg.Mat.mul_tn a b));
    at 4 "kernel:mul_tn-4dom" (fun () -> ignore (Linalg.Mat.mul_tn a b));
    at 1 "kernel:gram-1dom" (fun () -> ignore (Linalg.Mat.gram a));
    at 4 "kernel:gram-4dom" (fun () -> ignore (Linalg.Mat.gram a));
  ]

(* Sparse-kernel and sketch rows: CSR spmm at the same nnz as the dense
   256x256 product above (spread over 8x the rows), and the randomized
   range finder at two sketch ranks on that operator. *)
let sparse_tests () =
  let open Bechamel in
  let rng = Rng.create 43 in
  let dim = 256 in
  let dense_a = Linalg.Mat.init dim dim (fun _ _ -> Rng.gaussian rng) in
  let b = Linalg.Mat.init dim dim (fun _ _ -> Rng.gaussian rng) in
  let rows = 8 * dim in
  let per_row = dim * dim / rows in
  let sp =
    Linalg.Sparse.init_rows ~rows ~cols:dim (fun i ->
        List.init per_row (fun k -> (((7 * i) + (k * 11)) mod dim, Rng.gaussian rng)))
  in
  let tall = Linalg.Mat.init rows dim (fun _ _ -> Rng.gaussian rng) in
  let ops = Linalg.Rsvd.op_of_sparse sp in
  [
    Test.make ~name:"sparse:dense-mul-256x256-65k-nnz"
      (Staged.stage (fun () -> ignore (Linalg.Mat.mul dense_a b)));
    Test.make ~name:"sparse:spmm-2048x256-65k-nnz"
      (Staged.stage (fun () -> ignore (Linalg.Sparse.mul_mat sp b)));
    Test.make ~name:"sparse:spmm-t-2048x256-65k-nnz"
      (Staged.stage (fun () -> ignore (Linalg.Sparse.tmul_mat sp tall)));
    Test.make ~name:"sketch:range-finder-rank8"
      (Staged.stage (fun () ->
           ignore (Linalg.Rsvd.factor_op ~stop:(Rank 8) ~seed:9 ops)));
    Test.make ~name:"sketch:range-finder-rank32"
      (Staged.stage (fun () ->
           ignore (Linalg.Rsvd.factor_op ~stop:(Rank 32) ~seed:9 ops)));
  ]

let observe_line =
  lazy
    (let rng = Rng.create 47 in
     let dies cols =
       Serve.Wire.mat_to_json
         (Linalg.Mat.init 8 cols (fun _ _ -> 400.0 +. (50.0 *. Rng.gaussian rng)))
     in
     Serve.Wire.print
       (Serve.Wire.Obj
          [ ("op", Serve.Wire.String "observe"); ("dies", dies 6); ("truth", dies 2000) ]))

(* a served serve_predict response: 16 dies of 2000 predicted delays *)
let predict_response =
  lazy
    (let rng = Rng.create 59 in
     Serve.Wire.Obj
       [
         ("ok", Serve.Wire.Bool true);
         ("op", Serve.Wire.String "predict");
         ("gen", Serve.Wire.Int 1);
         ("dies", Serve.Wire.Int 16);
         ("robust", Serve.Wire.Bool false);
         ( "predictions",
           Serve.Wire.mat_to_json
             (Linalg.Mat.init 16 2000 (fun _ _ -> 400.0 +. (50.0 *. Rng.gaussian rng))) );
       ])

let crc_input =
  lazy
    (let rng = Rng.create 53 in
     String.init (16 lsl 20) (fun _ -> Char.chr (Rng.int rng 256)))

let micro_tests () =
  let open Bechamel in
  let setup, a, mu, svd = Lazy.force micro_fixture in
  let group_select_input =
    lazy
      (let exact = Core.Pipeline.exact_selection setup in
       let g_r1 =
         Linalg.Mat.select_rows
           (Timing.Paths.g_mat setup.Core.Pipeline.pool)
           exact.Core.Select.indices
       in
       let bounds =
         Array.make (Array.length exact.Core.Select.indices)
           (0.05 *. setup.Core.Pipeline.t_cons)
       in
       (g_r1, bounds))
  in
  [
    Test.make ~name:"table1:svd-of-A"
      (Staged.stage (fun () -> ignore (Linalg.Svd.factor a)));
    Test.make ~name:"table1:algo2-pivoted-qr-subset"
      (Staged.stage (fun () -> ignore (Core.Subset_select.rows_from_svd svd ~r:20)));
    Test.make ~name:"table1:thm2-predictor-build"
      (Staged.stage (fun () ->
           let rep = Core.Subset_select.rows_from_svd svd ~r:20 in
           ignore (Core.Predictor.build ~a ~mu ~rep)));
    Test.make ~name:"table1:algo1-bisection"
      (Staged.stage (fun () ->
           ignore
             (Core.Select.approximate ~a ~mu ~eps:0.05
                ~t_cons:setup.Core.Pipeline.t_cons ())));
    Test.make ~name:"table2:eqn10-group-select"
      (Staged.stage (fun () ->
           let g_r1, bounds = Lazy.force group_select_input in
           ignore
             (Convexopt.Group_select.select
                ~sigma:(Timing.Paths.sigma_mat setup.Core.Pipeline.pool)
                ~g1:g_r1 ~bounds ~kappa:3.0 ())));
    Test.make ~name:"figure2:effective-rank"
      (Staged.stage (fun () ->
           ignore
             (Core.Effective_rank.of_singular_values ~eta:0.05 svd.Linalg.Svd.s)));
    Test.make ~name:"mc:500-virtual-dies"
      (Staged.stage (fun () ->
           let mc =
             Timing.Monte_carlo.sample (Rng.create 5) setup.Core.Pipeline.pool ~n:500
           in
           ignore (Timing.Monte_carlo.path_delays mc)));
    (* the full-circuit yield sweep behind [prepare]'s extraction
       threshold, on the fixture's netlist *)
    Test.make ~name:"mc:circuit-yield-300"
      (Staged.stage (fun () ->
           ignore
             (Timing.Monte_carlo.circuit_yield setup.Core.Pipeline.dm
                ~t_cons:setup.Core.Pipeline.t_cons ~rng:(Rng.create 5) ~samples:300)));
    (* a serve_fleet observe request: 8 dies of 6 measured and 2000
       remainder delays, every float printed at 17 digits *)
    Test.make ~name:"wire:parse-observe-8x2000"
      (Staged.stage (fun () -> ignore (Serve.Wire.parse (Lazy.force observe_line))));
    Test.make ~name:"wire:print-predict-16x2000"
      (Staged.stage (fun () -> ignore (Serve.Wire.print (Lazy.force predict_response))));
    Test.make ~name:"store:crc32-16MB"
      (Staged.stage (fun () -> ignore (Store.Codec.crc32 (Lazy.force crc_input))));
    (* whole-program analysis of the built lib/ tree: the typedtree
       half of the cost `make lint` adds to the CI gate. No-op when the
       cmts are missing, e.g. a bench binary run outside the repo root. *)
    Test.make ~name:"tooling:analysis-lib-tree"
      (Staged.stage (fun () ->
           ignore (Analysis.analyze_cmts (Analysis.find_cmts "_build/default/lib"))));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "Micro-benchmarks (Bechamel, monotonic clock)";
  print_endline (String.make 64 '-');
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.5) () in
  let analyze = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let run_one (domains, test) =
    (match domains with None -> () | Some d -> Par.Pool.set_size d);
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all analyze instance raw in
    Hashtbl.iter
      (fun name ols ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Printf.printf "%-46s %12.3f ms/run\n%!" name (est /. 1e6)
        | Some _ | None -> Printf.printf "%-46s (no estimate)\n%!" name)
      results
  in
  List.iter run_one (List.map (fun t -> (None, t)) (micro_tests ()));
  (* lower the grain threshold so the 256x256 kernel rows exercise the
     parallel path; restore it afterwards *)
  let saved_threshold = Linalg.Mat.par_threshold_value () in
  let saved_domains = Par.Pool.size () in
  Linalg.Mat.set_par_threshold 10_000;
  Fun.protect ~finally:(fun () ->
      Linalg.Mat.set_par_threshold saved_threshold;
      Par.Pool.set_size saved_domains)
  @@ fun () ->
  List.iter run_one (kernel_tests ());
  List.iter run_one (List.map (fun t -> (None, t)) (sparse_tests ()))

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title (String.make 78 '=')

(* name, banner title, runner, and the short CI gate that
   [<name> --smoke] runs instead: no JSON file, exit 0 or 1 on the
   gate's verdict. Everything else derives from this list. *)
let experiments :
    (string
    * string
    * (Experiments.Profile.t -> unit)
    * (Experiments.Profile.t -> bool) option)
    list =
  [
    ( "table1",
      "E1 / Table 1 -- approximate path selection",
      (fun p -> ignore (Experiments.Table1.run p)),
      None );
    ( "table2",
      "E2 / Table 2 -- hybrid path/segment selection",
      (fun p -> ignore (Experiments.Table2.run p)),
      None );
    ( "figure2",
      "E3 / Figure 2 -- singular value decay",
      (fun p -> ignore (Experiments.Figure2.run p)),
      None );
    ( "guardband",
      "E4 / Section 6.3 -- guard-band analysis",
      (fun p -> ignore (Experiments.Guardband_exp.run p)),
      None );
    ("ablation", "E5+E6+E7+E10 -- ablations", (fun p -> Experiments.Ablation.run p), None);
    ( "robustness",
      "E8+E9+E11 -- production robustness",
      (fun p -> Experiments.Robustness.run p),
      None );
    ( "baselines",
      "E12 -- baselines from the related work",
      (fun p -> ignore (Experiments.Baselines_exp.run p)),
      None );
    ( "faults",
      "E13 -- fault-tolerant prediction under dirty silicon data",
      (fun p -> ignore (Experiments.Faults_exp.run p)),
      None );
    ( "e14",
      "E14 -- serving throughput: cold pipeline vs warm batched server",
      (fun p -> ignore (Experiments.Serve_exp.run ~out:"BENCH_e14.json" p)),
      None );
    (* gate: every parallel kernel bit-identical to serial; on >= 2-core
       hosts also the 4-domain matmul speedup floor *)
    ( "e15",
      "E15 -- domain-pool scaling: kernels and end-to-end pipeline",
      (fun p -> ignore (Experiments.Scaling.run ~out:"BENCH_e15.json" p)),
      Some (fun p -> (Experiments.Scaling.run ~smoke:true p).Experiments.Scaling.ok) );
    (* gate: the serving invariants under wire-level faults *)
    ( "e16",
      "E16 -- chaos soak: serving invariants under wire-level faults",
      (fun p -> ignore (Experiments.Chaos_exp.run ~out:"BENCH_e16.json" p)),
      Some (fun p -> (Experiments.Chaos_exp.run p).Experiments.Chaos_exp.ok) );
    (* gate: drift detected, re-selection recovers accuracy, no wrong
       answer *)
    ( "e17",
      "E17 -- self-healing soak: drift detection and auto re-selection",
      (fun p -> ignore (Experiments.Drift_exp.run ~out:"BENCH_e17.json" p)),
      Some (fun p -> (Experiments.Drift_exp.run p).Experiments.Drift_exp.ok) );
    (* gate: IS agrees with brute-force MC at >= 50x fewer samples, and
       every served answer is bit-exact *)
    ( "e18",
      "E18 -- decision workloads: importance-sampled yield + per-die tuning",
      (fun p -> ignore (Experiments.Decision_exp.run ~out:"BENCH_e18.json" p)),
      Some (fun p -> (Experiments.Decision_exp.run p).Experiments.Decision_exp.ok) );
    (* gate: a 50k-path sketched selection inside the wall budget, and
       worst-case error within 1.25x of the exact engine *)
    ( "e19",
      "E19 -- sketched million-path selection: quality vs exact, wall-clock scaling",
      (fun p -> ignore (Experiments.Sketch_exp.run ~out:"BENCH_e19.json" p)),
      Some (fun p -> (Experiments.Sketch_exp.run ~smoke:true p).Experiments.Sketch_exp.ok) );
    (* gate: random SIGKILLs under live traffic, zero acked-but-lost
       observations, recovered state equal to an uninterrupted run *)
    ( "e20",
      "E20 -- kill/recovery soak: WAL + checkpoint durability under SIGKILL",
      (fun p -> ignore (Experiments.Recover_exp.run ~out:"BENCH_e20.json" p)),
      Some (fun p -> (Experiments.Recover_exp.run p).Experiments.Recover_exp.ok) );
    ("micro", "micro-benchmarks", (fun _ -> run_micro ()), None);
  ]

let usage () =
  Printf.printf "usage: main.exe [%s|all] [--full] [--smoke] [--domains N]\n"
    (String.concat "|" (List.map (fun (name, _, _, _) -> name) experiments));
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let args =
    let rec strip_domains = function
      | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
         | Some d when d >= 1 -> Par.Pool.set_size d
         | _ -> usage ());
        strip_domains rest
      | a :: rest -> a :: strip_domains rest
      | [] -> []
    in
    strip_domains args
  in
  let profile = if full then Experiments.Profile.full else Experiments.Profile.quick in
  let what = match args with [] -> "all" | [ w ] -> w | _ -> usage () in
  let entry = List.find_opt (fun (name, _, _, _) -> name = what) experiments in
  if smoke then begin
    match entry with
    | Some (_, _, _, Some gate) -> exit (if gate profile then 0 else 1)
    | _ -> usage ()
  end;
  Printf.printf "profile: %s\n" profile.Experiments.Profile.name;
  let t0 = Unix.gettimeofday () in
  (* typed-error boundary: an error the Errors layer recognizes is one
     stderr line and its sysexits status (64 usage, 65 data, 66 missing
     input, 70 numerical), not a backtrace *)
  let run_one (_, title, fn, _) =
    banner title;
    match Core.Errors.catch (fun () -> fn profile) with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "bench: %s\n" (Core.Errors.to_string e);
      exit (Core.Errors.exit_code e)
  in
  (match (what, entry) with
   | "all", _ -> List.iter run_one experiments
   | _, Some e -> run_one e
   | _, None -> usage ());
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
