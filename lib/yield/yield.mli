(** Importance-sampled timing-yield estimation.

    The linear model of the paper makes a die's path delays
    [d = mu + A x] with [x ~ N(0, I)]; the circuit fails timing when
    [max_i d_i > t_cons]. For the yields that matter post-sign-off the
    failure is a rare event, and the naive Monte Carlo estimator needs
    [~100 / p] samples before its relative error is even respectable.

    This module estimates the same probability by sampling from a
    mean-shifted Gaussian [q = N(x*, I)] instead. The shift [x*] is the
    cheapest useful design point: the dominant path — the row of [A]
    whose standardized slack [beta_i = (t_cons - mu_i) / ||a_i||] is
    smallest — pulled exactly onto its failure boundary,
    [x* = a_i (t_cons - mu_i) / ||a_i||^2]. Samples are re-weighted by
    the likelihood ratio [w(x) = phi(x) / phi(x - x_star)], which keeps the
    estimator unbiased while concentrating samples where failures live.

    Both the unbiased likelihood-ratio estimate and the self-normalized
    variant (weights renormalized by their sample sum) are reported,
    with standard errors and an effective-sample-size diagnostic
    [ESS = (sum w)^2 / sum w^2]. A degenerate shift ([x* = 0], e.g. a
    dominant path sitting exactly at its constraint) makes every weight
    exactly [1.0] and the estimator collapses bit-for-bit onto brute
    force with the same generator.

    Everything is deterministic given the [Rng.t]: draws are consumed
    in strict sample order and the block-wise dense kernels are
    bit-identical at any {!Par.Pool} size, so a server can recompute an
    estimate exactly. *)

type estimate = {
  p_fail : float;      (** unbiased likelihood-ratio estimate of P(fail) *)
  sn_p_fail : float;   (** self-normalized estimate: sum wf / sum w *)
  std_err : float;     (** standard error of [p_fail] *)
  sn_std_err : float;  (** delta-method standard error of [sn_p_fail] *)
  ess : float;         (** effective sample size of the weights *)
  samples : int;
  hits : int;          (** raw count of failing samples *)
  shift_norm : float;  (** ||x*||, the design-point distance in sigmas *)
  dominant : int;      (** dominant path index; [-1] if the pool is
                           deterministic (all-zero sensitivity rows) *)
  t_cons : float;
}

val yield_of : estimate -> float
(** [1 - p_fail] (from the unbiased estimate). *)

(* lint: allow-next unused-export: [importance] runs it; test_yield pins it *)
val dominant_path :
  a:Linalg.Mat.t -> mu:Linalg.Vec.t -> t_cons:float -> int * float
(** The path minimizing [beta_i = (t_cons - mu_i) / ||a_i||] over rows
    with nonzero sensitivity, and its [beta]. [(-1, infinity)] when
    every row is (numerically) zero. *)

(* lint: allow-next unused-export: [importance] runs it; test_yield pins it *)
val design_point :
  a:Linalg.Mat.t -> mu:Linalg.Vec.t -> t_cons:float -> float array
(** The mean shift [x*]: the dominant path moved onto its failure
    boundary. The zero vector when the pool is deterministic. *)

val importance :
  ?block:int ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  t_cons:float ->
  rng:Rng.t ->
  samples:int ->
  unit ->
  estimate
(** Mean-shifted importance sampling with [samples] draws, evaluated in
    blocks of [block] (default 4096) through the dense kernels; the
    knob lets a test check that the bits do not depend on it. Raises
    [Invalid_argument] on dimension mismatch, non-finite [t_cons], or
    [samples < 2]. *)

val brute_force :
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  t_cons:float ->
  rng:Rng.t ->
  samples:int ->
  unit ->
  estimate
(** Plain Monte Carlo on the same model (shift zero, every weight 1).
    With the same [rng] seed and sample count it consumes the exact
    draw sequence of {!Timing.Monte_carlo.sample}, so failure counts
    against [path_delays] agree bit-for-bit. *)

(* lint: allow-next unused-export: [calibrate_t_cons] runs it; test_yield pins it *)
val union_bound : a:Linalg.Mat.t -> mu:Linalg.Vec.t -> t_cons:float -> float
(** Gaussian union bound [sum_i Phi(-beta_i)] on the failure
    probability, clamped to [1.0]. Cheap, conservative. *)

val calibrate_t_cons :
  a:Linalg.Mat.t -> mu:Linalg.Vec.t -> target:float -> float
(** The constraint at which {!union_bound} equals [target] (bisection;
    [target] in (0, 1)). Because the bound is conservative, the true
    failure probability at the returned constraint is [<= target] —
    the knob experiments use to build a bench of known rarity. *)

val sample_reduction : estimate -> float
(** Equal-confidence sample-count ratio versus naive Monte Carlo: the
    per-sample variance [p(1-p)] a brute-force estimator would carry at
    this estimate's [p_fail], over the importance sampler's measured
    per-sample variance. A value of 50 means MC needs 50x the samples
    for the same standard error. [nan] when the estimate carries no
    variance information (e.g. zero hits). *)

val agreement_z : estimate -> estimate -> float
(** |p1 - p2| in combined standard errors, [sqrt (se1^2 + se2^2)],
    over the unbiased likelihood-ratio estimates ([p_fail]/[std_err]
    — the self-normalized fields are a diagnostic and carry an
    [O(1/ess)] bias at aggressive shifts). [infinity] when both
    standard errors are zero and the estimates differ. *)
