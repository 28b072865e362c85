(** End-to-end flow: netlist -> variation model -> target paths ->
    selection -> Monte Carlo evaluation. This is the highest-level
    public API; the examples and the benchmark harness are thin
    wrappers over it. *)

type setup = {
  dm : Timing.Delay_model.t;
  t_cons : float;               (** timing constraint used throughout *)
  circuit_yield : float;        (** MC estimate of P(circuit delay <= T) *)
  yield_threshold : float;      (** path-extraction cut:
                                    1 - 0.01 * (1 - circuit_yield) *)
  pool : Timing.Paths.t;        (** target paths P_tar with G, Sigma, A *)
  truncated : bool;             (** extraction hit its path cap *)
}

val prepare :
  ?t_cons_scale:float ->
  ?max_paths:int ->
  ?yield_samples:int ->
  ?seed:int ->
  netlist:Circuit.Netlist.t ->
  model:Timing.Variation.model ->
  unit ->
  setup
(** [t_cons_scale] multiplies the nominal critical delay to form
    T_cons (1.0 = the paper's tight Table-1 constraint; > 1 relaxes it
    as in Table 2). Raises [Errors.Error (No_critical_paths _)] when no
    path survives extraction (the constraint is too loose). Defaults:
    scale 1.0, 20_000 path cap, 400 yield samples, seed 42. *)

val prepare_result :
  ?t_cons_scale:float ->
  ?max_paths:int ->
  ?yield_samples:int ->
  ?seed:int ->
  netlist:Circuit.Netlist.t ->
  model:Timing.Variation.model ->
  unit ->
  (setup, Errors.t) result
(** {!prepare} with failures reified as {!Errors.t} instead of
    exceptions — the entry point for callers (the CLI, services) that
    want exit codes rather than backtraces. *)

val prepare_with_model :
  ?t_cons_scale:float ->
  ?max_paths:int ->
  ?yield_samples:int ->
  ?seed:int ->
  dm:Timing.Delay_model.t ->
  unit ->
  setup
(** Like {!prepare}, but from an already-built delay model (e.g. the
    NLDM-based one of {!Timing.Delay_calc.delay_model}). *)

val approximate_selection :
  ?config:Config.t ->
  ?schedule:Select.schedule ->
  ?engine:Select.engine ->
  ?sketch:Select.sketch ->
  setup ->
  eps:float ->
  Select.t
(** Algorithm 1 on the pool's [A]. [engine]/[sketch] select between the
    exact SVD and the randomized sketch (see {!Select.engine}); the
    exact one factors the pool's [G * R^T] ({!Select.segment_svd}). *)

val exact_selection :
  ?config:Config.t ->
  ?engine:Select.engine ->
  ?sketch:Select.sketch ->
  setup ->
  Select.t
(** Section 4.1 on the pool, through the same factorization as
    {!approximate_selection}. *)

val hybrid_selection :
  ?config:Config.t ->
  ?eps_prime_grid:float list ->
  ?solver_options:Convexopt.Group_select.options ->
  setup ->
  eps:float ->
  Hybrid.t

val draw :
  ?mc_samples:int -> ?seed:int -> setup -> Timing.Monte_carlo.t
(** The Monte-Carlo die population used by the [evaluate_*] functions
    (defaults: 2_000 samples, seed 7) — exposed so callers can corrupt
    the measured slice with {!Timing.Faults} and score {!Robust}
    against the same truth. *)

val evaluate_selection :
  ?mc_samples:int -> ?seed:int -> setup -> Select.t -> Evaluate.metrics
(** Draw virtual dies and score the Theorem-2 predictor (defaults:
    2_000 samples, seed 7). *)

val evaluate_hybrid :
  ?mc_samples:int -> ?seed:int -> setup -> Hybrid.t -> Evaluate.metrics
(** Same for the hybrid scheme; metrics cover the paths that are NOT
    directly measured. *)

val guardband_report :
  ?mc_samples:int -> ?seed:int -> setup -> Select.t -> Guardband.report
(** Section 6.3 failure-detection check for a path selection. *)
