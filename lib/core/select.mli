(** Representative path selection (the paper's Algorithm 1).

    The SVD of [A] is computed once; each candidate size [r] re-slices
    [U_r], runs the pivoted-QR subset selection (Algorithm 2), builds
    the Theorem-2 predictor, and evaluates the analytic worst-case
    error of Eqn (7) against the tolerance [eps]. *)

type schedule =
  | Linear
  (** decrement [r] one at a time from [rank A], exactly as printed in
      the paper — O(rank) predictor builds *)
  | Bisection
  (** binary search for the smallest feasible [r], exploiting the
      (empirical) monotonicity of the error in [r] — O(log rank)
      predictor builds; the E5 ablation shows both agree *)

type engine =
  | Auto
  (** {!Exact} below {!sketch_threshold} rows, {!Sketched} at or above
      it — the default everywhere *)
  | Exact
  (** full Golub–Reinsch SVD of [A] (with the randomized
      no-convergence fallback) *)
  | Sketched
  (** randomized range sketch ({!Linalg.Rsvd}): the production engine
      for large pools; the paper's fast singular-value decay (§4.2)
      keeps the quality gap small (experiment E19) *)

type sketch = {
  sketch_rank : int option;
  (** [None] (default) grows the rank adaptively until the estimated
      Frobenius tail-energy fraction clears [eta^2] (the config's
      effective-rank threshold, squared because the probe estimate is
      in energy, not linear sigma); [Some k] fixes it *)
  oversample : int;   (** extra sketch columns beyond the rank; 8 *)
  power_iters : int;  (** subspace power iterations; 2 *)
  sketch_seed : int;
  (** the sketch is deterministic in this seed: same seed, same
      selection, bit-identical at any pool size *)
}
(** Every sketched entry point validates the record up front:
    [Invalid_argument] on [sketch_rank < 1], [oversample < 0] or
    [power_iters < 0] (a nonpositive fixed rank would otherwise run a
    silent rank-1 sketch with degraded selections). *)

val default_sketch : sketch

val sketch_threshold : int
(** Row count at which {!Auto} switches to {!Sketched} (4096). *)

type t = {
  indices : int array;          (** selected representative rows, sorted *)
  predictor : Predictor.t;
  rank : int;                   (** rank(A): the exact-selection size *)
  effective_rank : int;         (** at the config's [eta] *)
  eps_r : float;                (** achieved Eqn-(7) error at the final r *)
  per_path_eps : Linalg.Vec.t;  (** per-remaining-path guard-band fractions *)
  evaluations : int;            (** number of predictor builds performed *)
}

val exact :
  ?config:Config.t ->
  ?engine:engine ->
  ?sketch:sketch ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  unit ->
  t
(** Section 4.1: select [r = rank A] rows; the predictor is exact
    (zero analytic error up to numerical noise) under the [Exact]
    engine, and [r = sketch rank] under [Sketched]. *)

val approximate :
  ?config:Config.t ->
  ?schedule:schedule ->
  ?engine:engine ->
  ?sketch:sketch ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  eps:float ->
  t_cons:float ->
  unit ->
  t
(** Algorithm 1. Raises [Invalid_argument] when [eps <= 0] or
    [t_cons <= 0]. Default schedule is [Bisection], default engine
    {!Auto}. Under [Sketched] only the subset-selection basis is
    approximate — every candidate predictor and its analytic error are
    still built from the true [a]. *)

val select_with_size :
  ?config:Config.t ->
  ?engine:engine ->
  ?sketch:sketch ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  r:int ->
  unit ->
  t
(** Fixed-size selection (no tolerance loop); used by ablations. *)

val approximate_nested :
  ?config:Config.t ->
  ?engine:engine ->
  ?sketch:sketch ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  eps:float ->
  t_cons:float ->
  unit ->
  t
(** Algorithm 1 with the incremental (nested) subset selection of
    {!Subset_select.nested_rows}: one pivoted QR for all candidate
    sizes, prefixes as selections, bisection over the prefix length.
    Slightly larger selections than per-r re-pivoting in exchange for
    one factorization total (ablation E10). *)

type stream_t = {
  stream_indices : int array;  (** representative rows, sorted *)
  stream_svd : Linalg.Svd.t;   (** truncated sketch factorization *)
  sketch_rank_used : int;
  tail_fraction : float;
  (** achieved Frobenius tail-energy fraction of the adaptive sketch;
      [nan] when the rank was fixed by hand *)
}

val sketch_representatives :
  ?config:Config.t ->
  ?sketch:sketch ->
  ?r:int ->
  ops:Linalg.Rsvd.op ->
  unit ->
  stream_t
(** Million-path selection: the pool is consumed only through the
    mat-mul operator (e.g. {!Timing.Pool_stream.op} for the sparse
    [G * Sigma] product), the randomized sketch captures the leading
    subspace, and pivoted QR on the small sketch picks the
    representatives — no pool-sized dense matrix is ever allocated.
    [r] defaults to the effective rank of the sketched spectrum at the
    config's [eta]. Raises a typed {!Errors.Numerical} error when the
    sketch captures an empty range (zero operator). *)
