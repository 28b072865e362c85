(* Quickstart: generate a circuit, extract the statistically-critical
   paths, pick a handful of representative ones, and check on Monte
   Carlo "virtual dies" that measuring just those paths predicts all the
   others within the tolerance.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A circuit. Here a synthetic 400-gate netlist;
     Core.Errors.parse_bench_file loads a real ISCAS .bench instead. *)
  let netlist = Circuit.Generator.generate Circuit.Generator.default in
  Printf.printf "circuit: %s\n" (Circuit.Netlist.stats netlist);

  (* 2. The variation model: 3-level spatial quadtree (21 regions) for
     L_eff and V_t, plus a 6%-share random term per gate. *)
  let model = Timing.Variation.make_model ~levels:3 () in

  (* 3. Prepare the flow: timing constraint = nominal critical delay,
     target paths = everything whose yield loss exceeds 1% of the
     circuit's yield loss. *)
  let setup = Core.Pipeline.prepare ~netlist ~model () in
  Printf.printf
    "T_cons = %.1f ps, circuit yield %.3f -> %d target paths over %d segments\n"
    setup.t_cons setup.circuit_yield
    (Timing.Paths.num_paths setup.pool)
    (Timing.Paths.num_segments setup.pool);

  (* 4. Representative path selection at a 5% worst-case tolerance. *)
  let eps = 0.05 in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  Printf.printf
    "rank(A) = %d (exact selection size); effective rank = %d;\n\
     Algorithm 1 picked %d representative paths (analytic eps_r = %.2f%%)\n"
    sel.rank sel.effective_rank
    (Array.length sel.indices)
    (100.0 *. sel.eps_r);

  (* 5. Validate on 2000 virtual dies. *)
  let metrics = Core.Pipeline.evaluate_selection setup sel in
  Printf.printf
    "Monte Carlo over 2000 dies: max relative error e1 = %.2f%%, mean e2 = %.2f%%\n"
    (100.0 *. metrics.e1) (100.0 *. metrics.e2);
  if metrics.e1 <= eps *. 1.3 then
    print_endline "OK: measured errors sit inside the requested tolerance."
  else
    print_endline "WARNING: errors above tolerance; try a smaller eps."
