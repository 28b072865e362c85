(* pathsel: command-line front end for representative path selection.

   Subcommands:
     generate   emit a synthetic ISCAS-like netlist in .bench format
     select     run Algorithm 1 on a .bench netlist (or a named preset)
     hybrid     run Algorithm 3 (path + segment selection)
     spectrum   print the normalized singular values of A
     sdf, diagnose, save, inspect, serve, client, chaos, yield, tune
                see each command's --help

   The paper's experiments are regenerated by bench/main.exe. *)

open Cmdliner

(* Typed-error boundary: anything the Errors layer recognizes becomes a
   one-line message on stderr plus a sysexits-style status (64 usage,
   65 data, 66 missing input, 70 numerical) instead of a backtrace. *)
let handle f =
  let fail e =
    Printf.eprintf "pathsel: %s\n" (Core.Errors.to_string e);
    exit (Core.Errors.exit_code e)
  in
  try f () with
  | Core.Errors.Error e -> fail e
  | exn ->
    (match Core.Errors.of_exn ~file:"<input>" exn with
     | Some e -> fail e
     | None -> raise exn)

(* ---------------- shared arguments ---------------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker-domain pool size for the parallel kernels. Default: the \
                 $(b,PATHSEL_DOMAINS) environment variable, else the machine's \
                 core count. Results are bit-identical at every value; only \
                 wall-clock changes.")

let set_domains = function
  | None -> ()
  | Some d ->
    if d < 1 then
      Core.Errors.raise_error (Core.Errors.Invalid_input "--domains must be >= 1")
    else Par.Pool.set_size d

let checks_arg =
  Arg.(value & flag
       & info [ "checks" ]
           ~doc:"Enable runtime contract checking (equivalent to \
                 $(b,PATHSEL_CHECKS=1)): the numeric core re-asserts every \
                 dimension contract and fails fast on kernels that introduce \
                 NaNs from finite inputs.")

(* one shared term so every subcommand gets --domains and --checks; the
   settings apply as a side effect of argument evaluation *)
let runtime_arg =
  let apply domains checks =
    set_domains domains;
    if checks then Checks.set_enabled true
  in
  Term.(const apply $ domains_arg $ checks_arg)

let eps_arg default =
  Arg.(value & opt float default
       & info [ "eps" ] ~docv:"EPS" ~doc:"Worst-case error tolerance (fraction).")

let levels_arg =
  Arg.(value & opt int 3
       & info [ "levels" ]
           ~doc:"Spatial-correlation quadtree levels (3 = 21 regions, 5 = 341).")

let scale_arg =
  Arg.(value & opt float 1.0
       & info [ "scale" ] ~doc:"Size scale for named benchmark presets, in (0,1].")

let tscale_arg =
  Arg.(value & opt float 1.0
       & info [ "t-scale" ]
           ~doc:"Timing-constraint scale: T_cons = t-scale x nominal critical delay.")

let max_paths_arg =
  Arg.(value & opt int 5000 & info [ "max-paths" ] ~doc:"Cap on extracted target paths.")

let random_boost_arg =
  Arg.(value & opt float 1.0
       & info [ "random-boost" ] ~doc:"Multiplier on per-gate random sensitivities.")

let liberty_arg =
  Arg.(value & opt (some string) None
       & info [ "liberty" ]
           ~docv:"LIB"
           ~doc:"Liberty .lib file for NLDM delay calculation; \"builtin\" uses                  the embedded 90nm library. Omitted: the linear fanout model.")

let report_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the measurement plan as JSON to FILE.")

let circuit_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"CIRCUIT"
           ~doc:"A .bench file path, or a preset name (s1196..s38417). Omitted: a \
                 default synthetic circuit.")

let lenient_arg =
  Arg.(value & vflag false
         [ (true,
            info [ "lenient" ]
              ~doc:"Skip unparseable netlist lines and gates with undefined \
                    inputs, with one warning per skipped construct on stderr.");
           (false, info [ "strict" ] ~doc:"Reject any malformed input (default).") ])

let faults_conv =
  Arg.conv'
    ( (fun s ->
        match Timing.Faults.of_string s with Ok sp -> Ok sp | Error m -> Error m),
      fun ppf sp -> Format.fprintf ppf "%s" (Timing.Faults.to_string sp) )

let faults_arg =
  Arg.(value & opt (some faults_conv) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Inject measurement faults before prediction and compare the \
                 robust predictor against the naive one, e.g. \
                 $(b,dropout=0.1,outliers=0.01). Fields: dropout, die-dropout, \
                 outliers, outlier-scale, stuck, stuck-code, drift.")

let load_circuit ~scale ~seed ~lenient = function
  | None ->
    Circuit.Generator.generate { Circuit.Generator.default with seed }
  | Some spec ->
    (match Circuit.Benchmarks.find spec with
     | Some preset -> Circuit.Benchmarks.netlist ~scale preset
     | None ->
       if Sys.file_exists spec then begin
         if Filename.check_suffix spec ".v" then
           Core.Errors.(get_ok (parse_verilog_file spec))
         else begin
           let nl, warnings = Core.Errors.(get_ok (parse_bench_file ~lenient spec)) in
           List.iter (Printf.eprintf "pathsel: warning: %s\n") warnings;
           nl
         end
       end
       else
         Core.Errors.raise_error
           (Core.Errors.Invalid_input
              (Printf.sprintf "unknown circuit %S (not a preset, not a file)" spec)))

let load_liberty = function
  | None -> None
  | Some "builtin" ->
    Some (Circuit.Liberty.Library.of_group (Circuit.Liberty.parse Circuit.Liberty.builtin))
  | Some path -> Some Core.Errors.(get_ok (parse_liberty_file path))

let prepare ?(lenient = false) ~circuit ~scale ~seed ~levels ~random_boost ~tscale
    ~max_paths ~liberty () =
  let netlist = load_circuit ~scale ~seed ~lenient circuit in
  let model = Timing.Variation.make_model ~levels ~random_boost () in
  let setup =
    match load_liberty liberty with
    | None ->
      Core.Pipeline.prepare ~t_cons_scale:tscale ~max_paths ~seed ~netlist ~model ()
    | Some lib ->
      let dm = Timing.Delay_calc.delay_model lib netlist ~model in
      Core.Pipeline.prepare_with_model ~t_cons_scale:tscale ~max_paths ~seed ~dm ()
  in
  Printf.printf "circuit: %s\n" (Circuit.Netlist.stats netlist);
  Printf.printf
    "T_cons %.1f ps | yield %.3f | %d target paths, %d segments, %d variables%s\n"
    setup.Core.Pipeline.t_cons setup.Core.Pipeline.circuit_yield
    (Timing.Paths.num_paths setup.Core.Pipeline.pool)
    (Timing.Paths.num_segments setup.Core.Pipeline.pool)
    (Timing.Paths.num_vars setup.Core.Pipeline.pool)
    (if setup.Core.Pipeline.truncated then " (pool truncated)" else "");
  setup

(* ---------------- generate ---------------- *)

let generate_cmd =
  let gates = Arg.(value & opt int 400 & info [ "gates" ] ~doc:"Gate count.") in
  let inputs = Arg.(value & opt int 30 & info [ "inputs" ] ~doc:"Primary inputs.") in
  let outputs = Arg.(value & opt int 25 & info [ "outputs" ] ~doc:"Primary outputs.") in
  let depth = Arg.(value & opt int 14 & info [ "depth" ] ~doc:"Logic depth.") in
  let run gates inputs outputs depth seed =
    let nl =
      Circuit.Generator.generate
        { Circuit.Generator.num_gates = gates; num_inputs = inputs;
          num_outputs = outputs; depth; hub_fraction = 0.05; seed }
    in
    print_string (Circuit.Bench_io.print nl)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a synthetic netlist in .bench format on stdout.")
    Term.(const run $ gates $ inputs $ outputs $ depth $ seed_arg)

(* ---------------- select ---------------- *)

(* Sketch-engine flags (shared intent with Core.Select.sketch): the
   sketch seed is the subcommand's --seed, so the same seed reproduces
   the same selection bit-for-bit. *)
let sketch_flag =
  Arg.(value & flag
       & info [ "sketch" ]
           ~doc:"Force the randomized sketched engine regardless of pool size \
                 (the default engine switches to it automatically above \
                 4096 paths).")

let sketch_rank_arg =
  Arg.(value & opt (some int) None
       & info [ "sketch-rank" ] ~docv:"K"
           ~doc:"Fix the sketch rank. Default: grow the range finder in \
                 16-column blocks until the exact tail energy clears the \
                 squared effective-rank threshold.")

let sketch_config ~seed ~sketch_rank =
  (match sketch_rank with
   | Some k when k < 1 ->
     Core.Errors.raise_error (Core.Errors.Invalid_input "--sketch-rank must be >= 1")
   | _ -> ());
  { Core.Select.sketch_rank; sketch_seed = seed }

let select_cmd =
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact selection (r = rank A).")
  in
  let run () circuit scale seed levels random_boost tscale max_paths eps exact
      sketch sketch_rank liberty report lenient faults =
   handle @@ fun () ->
    let setup =
      prepare ~lenient ~circuit ~scale ~seed ~levels ~random_boost ~tscale
        ~max_paths ~liberty ()
    in
    let engine = if sketch then Core.Select.Sketched else Core.Select.Auto in
    let sketch = sketch_config ~seed ~sketch_rank in
    let sel =
      if exact then Core.Pipeline.exact_selection ~engine ~sketch setup
      else Core.Pipeline.approximate_selection ~engine ~sketch setup ~eps
    in
    (match report with
     | None -> ()
     | Some path ->
       Core.Report.write_file path
         (Core.Report.selection_report ~pool:setup.Core.Pipeline.pool
            ~t_cons:setup.Core.Pipeline.t_cons ~eps sel);
       Printf.printf "wrote %s\n" path);
    Printf.printf
      "rank(A) = %d | effective rank = %d | selected %d representative paths \
       (eps_r = %.2f%%)\n"
      sel.Core.Select.rank sel.Core.Select.effective_rank
      (Array.length sel.Core.Select.indices)
      (100.0 *. sel.Core.Select.eps_r);
    let every_path_selected =
      Array.length (Core.Predictor.rem_indices sel.Core.Select.predictor) = 0
    in
    if every_path_selected then
      print_endline "every target path is measured directly; nothing to predict"
    else begin
      let m = Core.Pipeline.evaluate_selection setup sel in
      Printf.printf "Monte Carlo: e1 = %.2f%%  e2 = %.2f%%\n"
        (100.0 *. m.Core.Evaluate.e1) (100.0 *. m.Core.Evaluate.e2)
    end;
    (match faults with
     | Some _ when every_path_selected -> ()
     | None -> ()
     | Some spec ->
       Timing.Faults.validate spec;
       let p = sel.Core.Select.predictor in
       let robust = Core.Robust.of_predictor p in
       let rep = Core.Predictor.rep_indices p in
       let mc = Core.Pipeline.draw setup in
       let d = Timing.Monte_carlo.path_delays mc in
       let truth = Linalg.Mat.select_cols d (Core.Predictor.rem_indices p) in
       let inj =
         Timing.Faults.inject spec (Rng.create (seed + 1))
           (Linalg.Mat.select_cols d rep)
       in
       let stats = inj.Timing.Faults.stats in
       Printf.printf
         "faults [%s]: %d/%d entries missing, %d dies dead, %d outliers, %d stuck\n"
         (Timing.Faults.to_string spec) stats.Timing.Faults.missing_entries
         stats.Timing.Faults.total_entries stats.Timing.Faults.dropped_dies
         stats.Timing.Faults.outlier_entries stats.Timing.Faults.stuck_entries;
       let pr = Core.Robust.predict_all robust ~measured:inj.Timing.Faults.data in
       let rm = Core.Robust.metrics pr ~truth in
       Printf.printf
         "robust:  e1 = %.2f%%  e2 = %.2f%% (screened %d outliers, %d reduced \
          solves, %d ridge, %d dies from mean)\n"
         (100.0 *. rm.Core.Evaluate.e1) (100.0 *. rm.Core.Evaluate.e2)
         pr.Core.Robust.screened.Core.Robust.outliers pr.Core.Robust.resolves
         pr.Core.Robust.ridge_fallbacks pr.Core.Robust.dead_dies;
       (match
          try
            let predicted =
              Core.Predictor.predict_all p ~measured:inj.Timing.Faults.data
            in
            Some (Core.Evaluate.of_predictions ~truth ~predicted)
          with Core.Errors.Error (Core.Errors.Bad_data _) -> None
        with
        | Some nm ->
          Printf.printf "naive:   e1 = %.2f%%  e2 = %.2f%%\n"
            (100.0 *. nm.Core.Evaluate.e1) (100.0 *. nm.Core.Evaluate.e2)
        | None ->
          Printf.printf
            "naive:   failed (non-finite predictions from missing entries)\n"));
    Printf.printf "representative path indices: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int sel.Core.Select.indices)))
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Representative path selection (Algorithm 1).")
    Term.(const run $ runtime_arg $ circuit_arg $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ eps_arg 0.05 $ exact
          $ sketch_flag $ sketch_rank_arg
          $ liberty_arg $ report_arg $ lenient_arg $ faults_arg)

(* ---------------- hybrid ---------------- *)

let hybrid_cmd =
  let run () circuit scale seed levels random_boost tscale max_paths eps
      liberty report lenient =
   handle @@ fun () ->
    let setup =
      prepare ~lenient ~circuit ~scale ~seed ~levels ~random_boost ~tscale
        ~max_paths ~liberty ()
    in
    let h = Core.Pipeline.hybrid_selection setup ~eps in
    (match report with
     | None -> ()
     | Some path ->
       Core.Report.write_file path
         (Core.Report.hybrid_report ~pool:setup.Core.Pipeline.pool
            ~t_cons:setup.Core.Pipeline.t_cons ~eps h);
       Printf.printf "wrote %s\n" path);
    Printf.printf
      "hybrid: %d paths + %d segments = %d measurements (eps' = %.1f%%, r1 = %d)\n"
      (Array.length h.Core.Hybrid.path_indices)
      (Array.length h.Core.Hybrid.segment_indices)
      (Core.Hybrid.total_measurements h)
      (100.0 *. h.Core.Hybrid.eps_prime)
      h.Core.Hybrid.r1;
    let m = Core.Pipeline.evaluate_hybrid setup h in
    Printf.printf "Monte Carlo: e1 = %.2f%%  e2 = %.2f%%\n" (100.0 *. m.Core.Evaluate.e1)
      (100.0 *. m.Core.Evaluate.e2);
    Printf.printf "segments: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int h.Core.Hybrid.segment_indices)))
  in
  Cmd.v
    (Cmd.info "hybrid" ~doc:"Hybrid path/segment selection (Algorithm 3).")
    Term.(const run $ runtime_arg $ circuit_arg $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ eps_arg 0.08
          $ liberty_arg $ report_arg $ lenient_arg)

(* ---------------- spectrum ---------------- *)

let spectrum_cmd =
  let count =
    Arg.(value & opt int 30 & info [ "count" ] ~doc:"Singular values to print.")
  in
  let run () circuit scale seed levels random_boost tscale max_paths count
      lenient =
   handle @@ fun () ->
    let setup =
      prepare ~lenient ~circuit ~scale ~seed ~levels ~random_boost ~tscale
        ~max_paths ~liberty:None ()
    in
    let svd = Linalg.Svd.factor ~vectors:Values (Timing.Paths.a_mat setup.Core.Pipeline.pool) in
    let norm = Core.Effective_rank.normalized_spectrum svd.Linalg.Svd.s in
    Printf.printf "rank %d, effective rank (eta 5%%) %d\n" (Linalg.Svd.rank svd)
      (Core.Effective_rank.of_singular_values ~eta:0.05 svd.Linalg.Svd.s);
    Array.iteri
      (fun i v -> if i < count then Printf.printf "%3d %.6g\n" (i + 1) v)
      norm
  in
  Cmd.v
    (Cmd.info "spectrum" ~doc:"Normalized singular values of A (Figure 2 data).")
    Term.(const run $ runtime_arg $ circuit_arg $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ count $ lenient_arg)

(* ---------------- sdf ---------------- *)

let sdf_cmd =
  let run circuit scale seed liberty lenient =
   handle @@ fun () ->
    let netlist = load_circuit ~scale ~seed ~lenient circuit in
    let lib =
      match load_liberty (Some (Option.value ~default:"builtin" liberty)) with
      | Some l -> l
      | None -> assert false
    in
    let sweep = Timing.Delay_calc.run lib netlist in
    print_string (Timing.Sdf.write netlist ~delays:sweep.Timing.Delay_calc.delays)
  in
  Cmd.v
    (Cmd.info "sdf"
       ~doc:"Run the NLDM delay calculation and emit an SDF 3.0 annotation on stdout.")
    Term.(const run $ circuit_arg $ scale_arg $ seed_arg $ liberty_arg $ lenient_arg)

(* ---------------- diagnose ---------------- *)

let diagnose_cmd =
  let die_seed =
    Arg.(value & opt int 1 & info [ "die-seed" ] ~doc:"Seed of the fabricated die.")
  in
  let top =
    Arg.(value & opt int 8 & info [ "top" ] ~doc:"Attributions to print.")
  in
  let run () circuit scale seed levels random_boost tscale max_paths die_seed
      top =
   handle @@ fun () ->
    let setup =
      prepare ~circuit ~scale ~seed ~levels ~random_boost ~tscale ~max_paths
        ~liberty:None ()
    in
    let sel = Core.Pipeline.exact_selection setup in
    let pool = setup.Core.Pipeline.pool in
    let diag = Core.Diagnose.build ~pool ~rep:sel.Core.Select.indices in
    let mc = Timing.Monte_carlo.sample (Rng.create die_seed) pool ~n:1 in
    let delays = Timing.Monte_carlo.path_delays mc in
    let measured =
      Array.map (fun i -> Linalg.Mat.get delays 0 i) sel.Core.Select.indices
    in
    Printf.printf "die %d: estimated die-to-die shift %+.2f sigma\n" die_seed
      (Core.Diagnose.die_to_die_shift diag ~measured);
    print_endline "top deviating variables:";
    List.iter
      (fun at ->
        Printf.printf "  %-16s %+.2f sigma\n"
          (Timing.Variation.var_name at.Core.Diagnose.var)
          at.Core.Diagnose.z_score)
      (Core.Diagnose.attribute ~top diag ~measured);
    let failing =
      Core.Diagnose.predicted_failures diag ~measured ~eps:sel.Core.Select.per_path_eps
        ~t_cons:setup.Core.Pipeline.t_cons
    in
    Printf.printf "flagged paths on this die: %d of %d\n" (List.length failing)
      (Timing.Paths.num_paths pool)
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Fabricate one Monte-Carlo die, measure the representative paths, and \
             attribute its process deviations (post-silicon diagnosis).")
    Term.(const run $ runtime_arg $ circuit_arg $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ die_seed $ top)

(* ---------------- prediction service: save / inspect / serve / client ------ *)

let artifact_pos =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"ARTIFACT" ~doc:"Selection artifact file (see $(b,pathsel save)).")

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1 (0 = ephemeral).")

let address ~socket ~port =
  match (socket, port) with
  | Some _, Some _ ->
    Core.Errors.raise_error
      (Core.Errors.Invalid_input "--socket and --port are mutually exclusive")
  | Some s, None -> Serve.Unix_sock s
  | None, Some p -> Serve.Tcp p
  | None, None -> Serve.Unix_sock "pathsel.sock"

let save_cmd =
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact selection (r = rank A).")
  in
  let output =
    Arg.(value & opt string "selection.psa"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Artifact output path.")
  in
  let run () circuit scale seed levels random_boost tscale max_paths eps exact
      liberty lenient output =
   handle @@ fun () ->
    let setup =
      prepare ~lenient ~circuit ~scale ~seed ~levels ~random_boost ~tscale
        ~max_paths ~liberty ()
    in
    let sel =
      if exact then Core.Pipeline.exact_selection setup
      else Core.Pipeline.approximate_selection setup ~eps
    in
    let pool = setup.Core.Pipeline.pool in
    let fingerprint =
      Printf.sprintf
        "circuit=%s scale=%g seed=%d levels=%d random-boost=%g t-scale=%g \
         max-paths=%d eps=%g mode=%s liberty=%s"
        (Option.value ~default:"<synthetic>" circuit)
        scale seed levels random_boost tscale max_paths eps
        (if exact then "exact" else "approximate")
        (Option.value ~default:"none" liberty)
    in
    let artifact =
      Store.of_selection ~fingerprint ~t_cons:setup.Core.Pipeline.t_cons ~eps
        ~n_segments:(Timing.Paths.num_segments pool)
        ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) sel
    in
    Core.Errors.get_ok (Store.save output artifact);
    Printf.printf
      "wrote %s: %d of %d paths selected (eps_r = %.2f%%), one-time pipeline \
       amortized\n"
      output
      (Array.length sel.Core.Select.indices)
      (Timing.Paths.num_paths pool)
      (100.0 *. sel.Core.Select.eps_r)
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Run the selection pipeline once and persist everything die-time \
             prediction needs as a versioned, checksummed artifact.")
    Term.(const run $ runtime_arg $ circuit_arg $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ eps_arg 0.05 $ exact
          $ liberty_arg $ lenient_arg $ output)

let inspect_cmd =
  let run path =
   handle @@ fun () ->
    print_string (Store.describe (Core.Errors.get_ok (Store.load path)))
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Validate a selection artifact (magic, version, checksum) and print \
             its summary.")
    Term.(const run $ artifact_pos)

let serve_cmd =
  let max_batch =
    Arg.(value & opt int Serve.default_config.Serve.max_batch
         & info [ "max-batch" ] ~docv:"N" ~doc:"Largest die batch accepted per request.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Connection worker threads; 0 sizes from the domain pool.")
  in
  let queue =
    Arg.(value & opt int Serve.default_config.Serve.queue
         & info [ "queue" ] ~docv:"N"
             ~doc:"Accepted connections awaiting a worker before new ones are \
                   shed with an $(b,overloaded) response.")
  in
  let deadline =
    Arg.(value & opt float Serve.default_config.Serve.deadline
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Per-request wall-clock budget; expiry answers \
                   $(b,deadline_exceeded) and closes the connection.")
  in
  let idle_timeout =
    Arg.(value & opt float Serve.default_config.Serve.idle_timeout
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Reap connections silent this long between requests.")
  in
  let max_line =
    Arg.(value & opt int Serve.default_config.Serve.max_line
         & info [ "max-line" ] ~docv:"BYTES"
             ~doc:"Request-line byte cap; longer lines answer \
                   $(b,line_too_long) without buffering the flood.")
  in
  let self_check =
    Arg.(value & flag
         & info [ "self-check" ]
             ~doc:"Start the server, ping it over the socket, shut it down, and exit; \
                   a CI-able one-shot liveness probe.")
  in
  let monitor =
    Arg.(value & flag
         & info [ "monitor" ]
             ~doc:"Arm the self-healing loop: CUSUM drift detection on \
                   $(b,observe) streams and automatic background \
                   re-selection (written back to the artifact \
                   path and hot-swapped).")
  in
  let drift_warn =
    Arg.(value & opt float Serve.Monitor.default_config.Serve.Monitor.drift.Stats.Drift.warn
         & info [ "drift-warn" ] ~docv:"SIGMAS"
             ~doc:"CUSUM statistic at which the monitor reports \
                   $(b,warning).")
  in
  let drift_threshold =
    Arg.(value & opt float Serve.Monitor.default_config.Serve.Monitor.drift.Stats.Drift.drift
         & info [ "drift-threshold" ] ~docv:"SIGMAS"
             ~doc:"CUSUM statistic at which the monitor reports \
                   $(b,drifted) and re-selection arms.")
  in
  let calibrate =
    Arg.(value & opt int Serve.Monitor.default_config.Serve.Monitor.calibrate
         & info [ "calibrate" ] ~docv:"DIES"
             ~doc:"Healthy dies used to calibrate the residual reference \
                   before drift monitoring starts.")
  in
  let min_dies =
    Arg.(value & opt int Serve.Monitor.default_config.Serve.Monitor.min_dies
         & info [ "min-dies" ] ~docv:"DIES"
             ~doc:"Recent fully measured dies required before an automatic \
                   re-selection may run.")
  in
  let reselect_cooldown =
    Arg.(value & opt float Serve.Monitor.default_config.Serve.Monitor.cooldown
         & info [ "reselect-cooldown" ] ~docv:"SECONDS"
             ~doc:"Minimum wall-clock spacing between re-selection attempts \
                   (failures back off exponentially from here).")
  in
  let wal_dir =
    Arg.(value & opt string Serve.default_durability.Serve.wal_dir
         & info [ "wal-dir" ] ~docv:"DIR"
             ~doc:"Directory holding the observation write-ahead log and the \
                   recovery checkpoint (created if missing). Only meaningful \
                   with $(b,--monitor).")
  in
  let checkpoint_every =
    Arg.(value & opt int Serve.default_durability.Serve.checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Journaled observations between monitor checkpoints: \
                   smaller recovers faster, larger checkpoints less often.")
  in
  let no_durability =
    Arg.(value & flag
         & info [ "no-durability" ]
             ~doc:"Disable the observe WAL and checkpointed recovery that \
                   $(b,--monitor) arms by default: acknowledged observations \
                   then die with the process.")
  in
  let run () path socket port max_batch workers queue deadline idle_timeout
      max_line self_check monitor drift_warn drift_threshold calibrate min_dies
      reselect_cooldown wal_dir checkpoint_every no_durability =
   handle @@ fun () ->
    let artifact = Core.Errors.get_ok (Store.load path) in
    let monitor_config =
      if not monitor then None
      else
        Some
          { Serve.Monitor.default_config with
            Serve.Monitor.calibrate;
            min_dies;
            cooldown = reselect_cooldown;
            drift =
              { Stats.Drift.default_config with
                Stats.Drift.warn = drift_warn;
                drift = drift_threshold } }
    in
    (* durability rides the monitor (the WAL journals its observation
       stream), so --monitor arms it by default; --no-durability opts a
       fleet member out, e.g. on scratch disks *)
    let durability =
      if (not monitor) || no_durability then None
      else
        Some { Serve.default_durability with Serve.wal_dir; checkpoint_every }
    in
    let config =
      { Serve.max_batch; workers; queue; deadline; idle_timeout; max_line;
        monitor = monitor_config; durability }
    in
    let addr = address ~socket ~port in
    if self_check then begin
      (* serve on a thread of this process; a raise there is the failure *)
      let served = Atomic.make true in
      let server =
        Thread.create
          (fun () ->
            match Serve.run ~install_signals:false ~config artifact addr with
            | () -> ()
            | exception _ -> Atomic.set served false)
          ()
      in
      let c = Serve.Client.connect addr in
      let pong = Serve.Client.ping c in
      let stats_ok = Result.is_ok (Serve.Client.stats c) in
      Serve.Client.shutdown c;
      Serve.Client.close c;
      Thread.join server;
      if pong && stats_ok && Atomic.get served then
        Printf.printf "self-check: ping + stats + drain ok on %s\n"
          (Serve.address_to_string addr)
      else begin
        prerr_endline "self-check: FAILED";
        Stdlib.exit 70
      end
    end
    else begin
      (* SIGHUP re-loads the artifact file the server started from *)
      Serve.run ~config ~reload_from:path artifact addr
        ~on_ready:(fun bound ->
          Printf.printf "pathsel serve: listening on %s (%d paths, %d representatives)\n%!"
            (Serve.address_to_string bound) artifact.Store.n_paths
            (Array.length artifact.Store.selection.Core.Select.indices));
      print_endline "pathsel serve: drained, bye"
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve batched die-delay predictions from a saved artifact over a \
             Unix-domain or TCP socket (newline-delimited JSON). SIGHUP \
             hot-reloads the artifact; SIGINT/SIGTERM drain and exit. With \
             $(b,--monitor), observe streams feed drift detection and \
             automatic background re-selection.")
    Term.(const run $ runtime_arg $ artifact_pos $ socket_arg $ port_arg $ max_batch
          $ workers $ queue $ deadline $ idle_timeout $ max_line $ self_check
          $ monitor $ drift_warn $ drift_threshold $ calibrate $ min_dies
          $ reselect_cooldown $ wal_dir $ checkpoint_every $ no_durability)

(* one die per line, comma- or space-separated; empty, nan or null
   marks a missing entry — shared by client predict/observe and tune *)
let parse_batch text =
  let parse_cell i j cell =
    match String.lowercase_ascii (String.trim cell) with
    | "" | "nan" | "null" -> Float.nan
    | s ->
      (match float_of_string_opt s with
       | Some v -> v
       | None ->
         Core.Errors.raise_error
           (Core.Errors.Bad_data
              (Printf.sprintf "die %d entry %d: %S is not a number" i j s)))
  in
  let rows =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
    |> List.mapi (fun i line ->
           (* comma-separated keeps empty cells (= missing measurement);
              whitespace-separated collapses runs of separators *)
           (if String.contains line ',' then String.split_on_char ',' line
            else
              String.split_on_char ' '
                (String.map (fun c -> if c = '\t' then ' ' else c) line)
              |> List.filter (fun c -> String.trim c <> ""))
           |> List.mapi (fun j cell -> parse_cell i j cell)
           |> Array.of_list)
  in
  if rows = [] then
    Core.Errors.raise_error (Core.Errors.Bad_data "no dies in the input");
  let widths = List.map Array.length rows in
  (match widths with
   | w :: rest when List.exists (fun w' -> w' <> w) rest ->
     Core.Errors.raise_error (Core.Errors.Bad_data "ragged measurement rows")
   | _ -> ());
  Linalg.Mat.of_arrays (Array.of_list rows)

(* a FILE argument: [-] is stdin, anything else goes through the one
   file reader *)
let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> Core.Errors.(get_ok (read_file path))

let client_cmd =
  let op =
    Arg.(required & pos 0 (some (enum
           [ ("ping", `Ping); ("stats", `Stats); ("shutdown", `Shutdown);
             ("predict", `Predict); ("observe", `Observe) ])) None
         & info [] ~docv:"OP"
             ~doc:"One of ping, stats, shutdown, predict, observe.")
  in
  let data =
    Arg.(value & opt (some string) None
         & info [ "data" ] ~docv:"FILE"
             ~doc:"Measured representative delays for $(b,predict) / \
                   $(b,observe): one die per line, comma- or space-separated; \
                   empty, $(b,nan) or $(b,null) marks a missing entry. \
                   $(b,-) reads stdin.")
  in
  let truth =
    Arg.(value & opt (some string) None
         & info [ "truth" ] ~docv:"FILE"
             ~doc:"Ground-truth remaining-path delays for $(b,observe), same \
                   per-die row format as --data.")
  in
  let robust =
    Arg.(value & flag
         & info [ "robust" ]
             ~doc:"Flag the batch as dirty: route through the MAD screen and the \
                   fault-tolerant reduced-subset predictor.")
  in
  let retries =
    Arg.(value & opt int Serve.Client.default_retry.Serve.Client.attempts
         & info [ "retries" ] ~docv:"N"
             ~doc:"Total $(b,predict) attempts; transport failures and \
                   string-coded infrastructure errors (overloaded, \
                   deadline_exceeded, bad_frame) are retried with \
                   exponential backoff + jitter, semantic errors never.")
  in
  let timeout =
    Arg.(value & opt float Serve.Client.default_retry.Serve.Client.deadline
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-attempt request wall-clock budget.")
  in
  let run op socket port data truth robust retries timeout =
   handle @@ fun () ->
    let addr = address ~socket ~port in
    let print_response = function
      | Ok resp -> print_endline (Serve.Wire.print resp)
      | Error msg ->
        Core.Errors.raise_error (Core.Errors.Io { file = "<server>"; msg })
    in
    let op_name =
      match op with
      | `Predict -> "predict"
      | `Observe -> "observe"
      | `Ping -> "ping"
      | `Stats -> "stats"
      | `Shutdown -> "shutdown"
    in
    let read_text flag = function
      | None ->
        Core.Errors.raise_error
          (Core.Errors.Invalid_input (Printf.sprintf "%s needs %s FILE" op_name flag))
      | Some file -> read_input file
    in
    match op with
    | `Observe ->
      let measured = parse_batch (read_text "--data" data) in
      let truth = parse_batch (read_text "--truth" truth) in
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.observe ~deadline:timeout c ~measured ~truth with
       | Ok resp -> print_endline (Serve.Wire.print resp)
       | Error msg ->
         Core.Errors.raise_error (Core.Errors.Bad_data ("server: " ^ msg)))
    | `Predict ->
      let measured = parse_batch (read_text "--data" data) in
      let retry =
        { Serve.Client.default_retry with
          Serve.Client.attempts = Int.max 1 retries;
          deadline = timeout }
      in
      (* pid-seeded jitter decorrelates concurrent testers' backoff *)
      let rng = Rng.create (Unix.getpid ()) in
      (match Serve.Client.predict_with_retry ~retry ~rng addr ~robust measured with
       | Ok (_, resp) -> print_endline (Serve.Wire.print resp)
       | Error msg ->
         Core.Errors.raise_error (Core.Errors.Bad_data ("server: " ^ msg)))
    | (`Ping | `Stats | `Shutdown) as op ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match op with
       | `Ping ->
         if Serve.Client.ping ~deadline:timeout c then print_endline "pong"
         else
           Core.Errors.raise_error
             (Core.Errors.Io { file = "<server>"; msg = "no pong" })
       | `Stats -> print_response (Serve.Client.stats ~deadline:timeout c)
       | `Shutdown ->
         Serve.Client.shutdown c;
         print_endline "shutdown requested")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,pathsel serve): ping, stats, shutdown, or a \
             batched prediction request with bounded retries.")
    Term.(const run $ op $ socket_arg $ port_arg $ data $ truth $ robust
          $ retries $ timeout)

let chaos_cmd =
  let upstream_socket =
    Arg.(value & opt (some string) None
         & info [ "upstream-socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the real server to forward to.")
  in
  let upstream_port =
    Arg.(value & opt (some int) None
         & info [ "upstream-port" ] ~docv:"PORT"
             ~doc:"Loopback TCP port of the real server to forward to.")
  in
  let spec_arg =
    let spec_conv =
      Arg.conv'
        ( Chaos.of_string,
          fun ppf s -> Format.fprintf ppf "%s" (Chaos.to_string s) )
    in
    Arg.(value & opt spec_conv Chaos.none
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Comma-separated fault spec, e.g. \
                   $(b,delay=2,corrupt=0.1,stall=0.05). Keys: delay-ms, \
                   jitter, partial-write, truncate, corrupt, disconnect, \
                   stall (rates in [0,1]), eintr-burst.")
  in
  let seed_arg =
    Arg.(value & opt int 1337
         & info [ "seed" ] ~docv:"N" ~doc:"Fault-injection RNG seed.")
  in
  let signal_pid =
    Arg.(value & opt (some int) None
         & info [ "signal-pid" ] ~docv:"PID"
             ~doc:"Process to storm with SIGUSR1 when $(b,eintr-burst) is set \
                   (typically the server's pid).")
  in
  let run () socket port upstream_socket upstream_port spec seed signal_pid =
   handle @@ fun () ->
    if upstream_socket = None && upstream_port = None then
      Core.Errors.raise_error
        (Core.Errors.Invalid_input
           "chaos needs --upstream-socket PATH or --upstream-port PORT");
    let listen = address ~socket ~port in
    let upstream = address ~socket:upstream_socket ~port:upstream_port in
    let proxy = Chaos.start ~seed ?eintr_pid:signal_pid spec ~listen ~upstream in
    Printf.printf "pathsel chaos: %s -> %s injecting [%s]\n%!"
      (Serve.address_to_string (Chaos.bound_addr proxy))
      (Serve.address_to_string upstream)
      (let s = Chaos.to_string spec in if s = "" then "nothing" else s);
    let stop = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    while not (Atomic.get stop) do
      Unix.sleepf 0.2
    done;
    Chaos.stop proxy;
    let st = Chaos.stats proxy in
    Printf.printf
      "pathsel chaos: %d connections, %d chunks, %d bytes; delayed %d, \
       fragmented %d, truncated %d, corrupted %d, disconnected %d, stalled \
       %d, %d EINTR signals\n"
      st.Chaos.connections st.Chaos.chunks st.Chaos.bytes st.Chaos.delayed
      st.Chaos.partial_writes st.Chaos.truncated st.Chaos.corrupted
      st.Chaos.disconnected st.Chaos.stalled st.Chaos.eintr_signals
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the fault-injecting proxy between a client and a running \
             $(b,pathsel serve): forwards every byte, injecting delays, \
             partial writes, truncation, corruption, disconnects, stalls and \
             EINTR storms per $(b,--faults). SIGINT/SIGTERM stops it and \
             prints injection stats.")
    Term.(const run $ runtime_arg $ socket_arg $ port_arg $ upstream_socket
          $ upstream_port $ spec_arg $ seed_arg $ signal_pid)

(* ---------------- decision ops: yield / tune ---------------- *)

let yield_cmd =
  let source =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SOURCE"
             ~doc:"A selection artifact (see $(b,pathsel save)), a .bench file, \
                   or a preset name. Omitted: a default synthetic circuit.")
  in
  let samples =
    Arg.(value & opt int 16_384
         & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples drawn.")
  in
  let brute =
    Arg.(value & flag
         & info [ "brute-force" ]
             ~doc:"Plain Monte Carlo instead of the mean-shifted importance \
                   sampler (same seed = same underlying draw sequence).")
  in
  let t_cons_opt =
    Arg.(value & opt (some float) None
         & info [ "t-cons" ] ~docv:"PS"
             ~doc:"Timing constraint to estimate against. Default: the \
                   source's own constraint.")
  in
  let target =
    Arg.(value & opt (some float) None
         & info [ "target-pfail" ] ~docv:"P"
             ~doc:"Calibrate the constraint so the union-bound failure \
                   probability equals P (mutually exclusive with --t-cons).")
  in
  let run () source scale seed levels random_boost tscale max_paths lenient
      samples brute t_cons_opt target =
   handle @@ fun () ->
    let a, mu, source_t_cons =
      let from_circuit () =
        let setup =
          prepare ~lenient ~circuit:source ~scale ~seed ~levels ~random_boost
            ~tscale ~max_paths ~liberty:None ()
        in
        let pool = setup.Core.Pipeline.pool in
        ( Timing.Paths.a_mat pool,
          Timing.Paths.mu_paths pool,
          setup.Core.Pipeline.t_cons )
      in
      match source with
      | Some path when Sys.file_exists path && not (Sys.is_directory path) ->
        (match Store.load path with
         | Ok art ->
           Printf.printf "artifact: %d paths, %d variables, T_cons %.1f ps\n"
             art.Store.n_paths art.Store.n_vars art.Store.t_cons;
           (art.Store.a_mat, art.Store.mu, art.Store.t_cons)
         | Error (Core.Errors.Io _ as e) -> Core.Errors.raise_error e
         | Error _ -> from_circuit () (* not an artifact: parse as netlist *))
      | _ -> from_circuit ()
    in
    let t_cons =
      match (t_cons_opt, target) with
      | Some _, Some _ ->
        Core.Errors.raise_error
          (Core.Errors.Invalid_input
             "--t-cons and --target-pfail are mutually exclusive")
      | Some t, None -> t
      | None, Some p ->
        let t = Yield.calibrate_t_cons ~a ~mu ~target:p in
        Printf.printf "calibrated T_cons %.2f ps (union-bound P(fail) = %g)\n"
          t p;
        t
      | None, None -> source_t_cons
    in
    let est =
      let rng = Rng.create seed in
      if brute then Yield.brute_force ~a ~mu ~t_cons ~rng ~samples ()
      else Yield.importance ~a ~mu ~t_cons ~rng ~samples ()
    in
    Printf.printf "%s: %d samples at T_cons %.2f ps\n"
      (if brute then "brute-force Monte Carlo" else "importance sampling")
      samples t_cons;
    Printf.printf "P(fail) = %.6g +- %.2g  (yield %.6f)\n" est.Yield.p_fail
      est.Yield.std_err (Yield.yield_of est);
    Printf.printf
      "self-normalized %.6g +- %.2g | ess %.0f | %d hits | shift |x*| %.2f \
       (dominant path %d)\n"
      est.Yield.sn_p_fail est.Yield.sn_std_err est.Yield.ess est.Yield.hits
      est.Yield.shift_norm est.Yield.dominant;
    let red = Yield.sample_reduction est in
    if Float.is_finite red && not brute then
      Printf.printf
        "plain MC needs %.0fx the samples for this standard error\n" red
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:"Estimate the timing-yield / failure probability of a path pool \
             with mean-shifted importance sampling (or $(b,--brute-force) \
             Monte Carlo), from a saved artifact or a circuit.")
    Term.(const run $ runtime_arg $ source $ scale_arg $ seed_arg $ levels_arg
          $ random_boost_arg $ tscale_arg $ max_paths_arg $ lenient_arg
          $ samples $ brute $ t_cons_opt $ target)

let tune_cmd =
  let buffers_arg =
    Arg.(required & opt (some string) None
         & info [ "buffers" ] ~docv:"FILE"
             ~doc:"Tunable-buffer description, JSON: a list (or an object with \
                   a $(b,buffers) member) of \
                   {\"paths\": [..], \"levels\": [{\"offset_ps\": .., \
                   \"cost\": ..}, ..]} objects. $(b,-) reads stdin.")
  in
  let t_clk_arg =
    Arg.(value & opt (some float) None
         & info [ "t-clk" ] ~docv:"PS"
             ~doc:"Clock target each die must meet. Default: the artifact's \
                   timing constraint.")
  in
  let data =
    Arg.(value & opt (some string) None
         & info [ "data" ] ~docv:"FILE"
             ~doc:"Measured representative-path delays, one die per line (the \
                   $(b,client --data) format); unmeasured paths are predicted \
                   with the artifact's Theorem-2 predictor. $(b,-) reads stdin.")
  in
  let delays_arg =
    Arg.(value & opt (some string) None
         & info [ "delays" ] ~docv:"FILE"
             ~doc:"Full per-die path delays (all paths, one die per line) — \
                   skips prediction. Mutually exclusive with --data.")
  in
  let run () path buffers_file t_clk data delays_file =
   handle @@ fun () ->
    let art = Core.Errors.get_ok (Store.load path) in
    let n_paths = art.Store.n_paths in
    let buffers =
      let j =
        match Serve.Wire.parse (String.trim (read_input buffers_file)) with
        | Ok j -> (match Serve.Wire.member "buffers" j with Some b -> b | None -> j)
        | Error msg ->
          Core.Errors.raise_error
            (Core.Errors.Bad_data ("buffers: " ^ msg))
      in
      match Serve.buffers_of_json ~n_paths j with
      | Ok b -> b
      | Error msg ->
        Core.Errors.raise_error (Core.Errors.Bad_data ("buffers: " ^ msg))
    in
    let t_clk = Option.value ~default:art.Store.t_cons t_clk in
    let full =
      match (delays_file, data) with
      | Some _, Some _ ->
        Core.Errors.raise_error
          (Core.Errors.Invalid_input "--data and --delays are mutually exclusive")
      | Some f, None ->
        let d = parse_batch (read_input f) in
        let _, c = Linalg.Mat.dims d in
        if c <> n_paths then
          Core.Errors.raise_error
            (Core.Errors.Bad_data
               (Printf.sprintf "--delays rows have %d entries; artifact has %d paths"
                  c n_paths));
        d
      | None, Some f ->
        let measured = parse_batch (read_input f) in
        let p = Store.predictor art in
        let r = Array.length (Core.Predictor.rep_indices p) in
        let _, c = Linalg.Mat.dims measured in
        if c <> r then
          Core.Errors.raise_error
            (Core.Errors.Bad_data
               (Printf.sprintf "--data rows have %d entries; artifact measures %d paths"
                  c r));
        Core.Predictor.full_delays p ~measured
      | None, None ->
        Core.Errors.raise_error
          (Core.Errors.Invalid_input
             "tune needs --data FILE (measured representatives) or --delays \
              FILE (full per-die delays)")
    in
    let n_dies, _ = Linalg.Mat.dims full in
    Printf.printf "tune: %d dies against t_clk %.2f ps (%d buffers)\n" n_dies
      t_clk (Array.length buffers);
    let infeasible = ref 0 in
    let total_cost = ref 0.0 in
    for i = 0 to n_dies - 1 do
      match
        Tune.solve { Tune.delays = Linalg.Mat.row full i; t_clk; buffers }
      with
      | Tune.Feasible asg ->
        total_cost := !total_cost +. asg.Tune.cost;
        Printf.printf "die %d: cost %.3f, slack %.2f ps, levels [%s]%s\n" i
          asg.Tune.cost asg.Tune.slack_ps
          (String.concat " "
             (Array.to_list (Array.map string_of_int asg.Tune.levels)))
          (if asg.Tune.exact then "" else " (node cap hit; best found)")
      | Tune.Infeasible inf ->
        incr infeasible;
        Printf.printf "die %d: INFEASIBLE (path %d misses by %.2f ps at \
                       maximum offsets)\n"
          i inf.Tune.path inf.Tune.deficit_ps
    done;
    let tuned = n_dies - !infeasible in
    Printf.printf "%d/%d dies tunable%s\n" tuned n_dies
      (if tuned > 0 then
         Printf.sprintf ", mean cost %.3f" (!total_cost /. float_of_int tuned)
       else "");
    (* mirror the serving contract: any infeasible die is the typed
       sysexits data error, not a silent partial success *)
    if !infeasible > 0 then Stdlib.exit 65
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Per-die tunable-buffer configuration: the minimum-cost discrete \
             level assignment meeting a clock target, from a saved artifact \
             plus measured (or full) die delays. Exits 65 when any die is \
             infeasible even at maximum offsets.")
    Term.(const run $ runtime_arg $ artifact_pos $ buffers_arg $ t_clk_arg
          $ data $ delays_arg)

let main =
  Cmd.group
    (Cmd.info "pathsel" ~version:"1.0.0"
       ~doc:"Representative path selection for post-silicon timing prediction \
             (Xie & Davoodi, DAC 2010).")
    [ generate_cmd; select_cmd; hybrid_cmd; spectrum_cmd; sdf_cmd; diagnose_cmd;
      save_cmd; inspect_cmd; serve_cmd; client_cmd; chaos_cmd; yield_cmd;
      tune_cmd ]

let () = exit (Cmd.eval main)
