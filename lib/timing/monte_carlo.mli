(** Monte Carlo "virtual dies".

    Each sample is one fabricated chip: a draw of the full variation
    vector [x ~ N(0, I)]. True path and segment delays follow from the
    linear model; this is exactly how the paper evaluates prediction
    accuracy (Section 6, N = 10,000 samples). *)

type t

val sample : Rng.t -> Paths.t -> n:int -> t
(** Draw [n] dies for the given path pool. *)

val path_delays : t -> Linalg.Mat.t
(** [n_samples x n_paths] true path delays: [mu_P + X A^T], computed
    lazily and cached. [A] is mostly exact zeros, so the product runs
    through its CSR form ({!Linalg.Sparse.mul_dense_nt}) at the cost
    of its nonzeros. The draws are finite, so the skipped terms are
    [+-0] and the result is bit-identical to the dense
    [Linalg.Mat.mul_nt], at any pool size. *)

val segment_delays : t -> Linalg.Mat.t
(** [n_samples x n_segments] true segment delays: [mu_S + X Sigma^T],
    lazy and cached; through CSR like {!path_delays}, with the same
    bit contract. *)

val circuit_yield :
  Delay_model.t -> t_cons:float -> rng:Rng.t -> samples:int -> float
(** Full-circuit timing yield estimate: per sample, draw every model
    variable (all gates, all regions), run a longest-path sweep, and
    count dies meeting [t_cons]. Independent of any extracted path
    pool.

    A sample draws one value per {!Variation.slot} and reads the delay
    model's compiled terms ({!Delay_model.terms}), so it is plain
    array loops. The per-sample sweeps run on the
    {!Par.Pool} domain pool; randomness is still consumed from [rng] in
    strict sample order, so the estimate is bit-identical at every
    pool size. *)
