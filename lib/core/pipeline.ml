type setup = {
  dm : Timing.Delay_model.t;
  t_cons : float;
  circuit_yield : float;
  yield_threshold : float;
  pool : Timing.Paths.t;
  truncated : bool;
}

let prepare_with_model ?(t_cons_scale = 1.0) ?(max_paths = 20_000)
    ?(yield_samples = 400) ?(seed = 42) ~dm () =
  if t_cons_scale <= 0.0 then invalid_arg "Pipeline.prepare: t_cons_scale <= 0";
  let t_cons = t_cons_scale *. Timing.Delay_model.nominal_critical_delay dm in
  let rng = Rng.create seed in
  let circuit_yield =
    Timing.Monte_carlo.circuit_yield dm ~t_cons ~rng ~samples:yield_samples
  in
  (* The paper extracts all paths with yield-loss > 0.01 * (1 - Y); clamp
     away from 1.0 so the threshold stays a proper quantile. *)
  let yield_threshold =
    Float.min 0.999999 (1.0 -. (0.01 *. (1.0 -. circuit_yield)))
  in
  let result = Timing.Path_extract.extract ~max_paths dm ~t_cons ~yield_threshold in
  match result.Timing.Path_extract.paths with
  | [] ->
    Errors.raise_error
      (Errors.No_critical_paths { t_cons; yield = circuit_yield })
  | paths ->
    let pool = Timing.Paths.build dm paths in
    {
      dm; t_cons; circuit_yield; yield_threshold; pool;
      truncated = result.Timing.Path_extract.truncated;
    }

let prepare ?t_cons_scale ?max_paths ?yield_samples ?seed ~netlist ~model () =
  prepare_with_model ?t_cons_scale ?max_paths ?yield_samples ?seed
    ~dm:(Timing.Delay_model.build netlist model) ()

let prepare_result ?t_cons_scale ?max_paths ?yield_samples ?seed ~netlist ~model () =
  Errors.catch (fun () ->
      prepare ?t_cons_scale ?max_paths ?yield_samples ?seed ~netlist ~model ())

(* the pool's G and Sigma, for Select's Lemma-1 route *)
let factors setup = (Timing.Paths.g_mat setup.pool, Timing.Paths.sigma_mat setup.pool)

let approximate_selection ?config ?schedule ?engine ?sketch setup ~eps =
  Select.approximate ?config ?schedule ?engine ?sketch ~factors:(factors setup)
    ~a:(Timing.Paths.a_mat setup.pool)
    ~mu:(Timing.Paths.mu_paths setup.pool)
    ~eps ~t_cons:setup.t_cons ()

let exact_selection ?config ?engine ?sketch setup =
  Select.exact ?config ?engine ?sketch ~factors:(factors setup)
    ~a:(Timing.Paths.a_mat setup.pool)
    ~mu:(Timing.Paths.mu_paths setup.pool) ()

let hybrid_selection ?config ?eps_prime_grid ?solver_options setup ~eps =
  Hybrid.run ?config ?eps_prime_grid ?solver_options
    ~a:(Timing.Paths.a_mat setup.pool)
    ~g:(Timing.Paths.g_mat setup.pool)
    ~sigma:(Timing.Paths.sigma_mat setup.pool)
    ~mu:(Timing.Paths.mu_paths setup.pool)
    ~eps ~t_cons:setup.t_cons ()

let draw ?(mc_samples = 2_000) ?(seed = 7) setup =
  Timing.Monte_carlo.sample (Rng.create seed) setup.pool ~n:mc_samples

let evaluate_selection ?mc_samples ?seed setup sel =
  let mc = draw ?mc_samples ?seed setup in
  Evaluate.predictor_metrics sel.Select.predictor
    ~path_delays:(Timing.Monte_carlo.path_delays mc)

let evaluate_hybrid ?mc_samples ?seed setup h =
  let mc = draw ?mc_samples ?seed setup in
  let path_delays = Timing.Monte_carlo.path_delays mc in
  let predicted_all =
    Hybrid.predict_all h
      ~mu:(Timing.Paths.mu_paths setup.pool)
      ~mu_segments:(Timing.Paths.mu_segments setup.pool)
      ~segment_delays:(Timing.Monte_carlo.segment_delays mc)
      ~path_delays
  in
  (* score only the paths that are not directly measured *)
  let n = Timing.Paths.num_paths setup.pool in
  let measured = Array.make n false in
  Array.iter (fun i -> measured.(i) <- true) h.Hybrid.path_indices;
  let rem = ref [] in
  for i = n - 1 downto 0 do
    if not measured.(i) then rem := i :: !rem
  done;
  let rem = Array.of_list !rem in
  Evaluate.of_predictions
    ~truth:(Linalg.Mat.select_cols path_delays rem)
    ~predicted:(Linalg.Mat.select_cols predicted_all rem)

let guardband_report ?mc_samples ?seed setup sel =
  let mc = draw ?mc_samples ?seed setup in
  let path_delays = Timing.Monte_carlo.path_delays mc in
  let p = sel.Select.predictor in
  let rep = Predictor.rep_indices p in
  let rem = Predictor.rem_indices p in
  let measured = Linalg.Mat.select_cols path_delays rep in
  let truth = Linalg.Mat.select_cols path_delays rem in
  let predicted = Predictor.predict_all p ~measured in
  (* guard-band fractions are capped below 1 for the division test *)
  let eps = Array.map (fun e -> Float.min 0.99 e) sel.Select.per_path_eps in
  Guardband.analyze ~truth ~predicted ~eps ~t_cons:setup.t_cons
