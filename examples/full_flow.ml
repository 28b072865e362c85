(* The complete production flow, end to end:

     structural Verilog  ->  NLDM delay calculation (Liberty tables)
       ->  statistical delay model  ->  target-path extraction
       ->  representative selection  ->  JSON measurement plan

   Run with:  dune exec examples/full_flow.exe *)

let () =
  (* 1. a gate-level Verilog netlist (generated here;
     Core.Errors.parse_verilog_file loads a real one) *)
  let generated =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 350; seed = 27 }
  in
  let verilog_text = Circuit.Verilog_io.print generated in
  let netlist = Circuit.Verilog_io.parse ~name:"demo" verilog_text in
  Printf.printf "parsed Verilog: %s\n" (Circuit.Netlist.stats netlist);

  (* 2. NLDM delay calculation from the embedded Liberty library *)
  let lib =
    Circuit.Liberty.Library.of_group (Circuit.Liberty.parse Circuit.Liberty.builtin)
  in
  let sweep = Timing.Delay_calc.run lib netlist in
  Printf.printf "NLDM sweep: gate delays %.1f..%.1f ps, max load %.4f pF\n"
    (Array.fold_left Float.min infinity sweep.delays)
    (Array.fold_left Float.max 0.0 sweep.delays)
    (Array.fold_left Float.max 0.0 sweep.loads);

  (* 3. statistical model on top of the NLDM nominals *)
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_calc.delay_model lib netlist ~model in
  let setup = Core.Pipeline.prepare_with_model ~dm () in
  Printf.printf "targets: %d paths, %d segments at T = %.1f ps (yield %.3f)\n"
    (Timing.Paths.num_paths setup.pool)
    (Timing.Paths.num_segments setup.pool)
    setup.t_cons setup.circuit_yield;

  (* 4. selection, both flavours *)
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  let hybrid = Core.Pipeline.hybrid_selection setup ~eps:0.08 in
  Printf.printf "Algorithm 1: %d paths; Algorithm 3: %d paths + %d segments\n"
    (Array.length sel.indices)
    (Array.length hybrid.path_indices)
    (Array.length hybrid.segment_indices);

  (* 5. machine-readable plans for the DFT flow *)
  let dir = Filename.get_temp_dir_name () in
  let path_plan = Filename.concat dir "repro_path_plan.json" in
  let hybrid_plan = Filename.concat dir "repro_hybrid_plan.json" in
  Core.Report.write_file path_plan
    (Core.Report.selection_report ~pool:setup.pool ~t_cons:setup.t_cons ~eps:0.05 sel);
  Core.Report.write_file hybrid_plan
    (Core.Report.hybrid_report ~pool:setup.pool ~t_cons:setup.t_cons ~eps:0.08 hybrid);
  Printf.printf "wrote %s\nwrote %s\n" path_plan hybrid_plan;

  (* 6. sanity: score the plan on Monte Carlo dies with realistic
     (quantized, jittery) measurements *)
  let p = sel.predictor in
  let mc = Timing.Monte_carlo.sample (Rng.create 1) setup.pool ~n:1000 in
  let d = Timing.Monte_carlo.path_delays mc in
  let rep = Core.Predictor.rep_indices p in
  let measured =
    Timing.Measurement.apply_mat Timing.Measurement.typical_path_ro (Rng.create 2)
      (Linalg.Mat.select_cols d rep)
  in
  let metrics =
    Core.Evaluate.of_predictions
      ~truth:(Linalg.Mat.select_cols d (Core.Predictor.rem_indices p))
      ~predicted:(Core.Predictor.predict_all p ~measured)
  in
  Printf.printf
    "with path-RO measurement: e1 = %.2f%%, e2 = %.2f%% over 1000 dies\n"
    (100.0 *. metrics.e1) (100.0 *. metrics.e2)
