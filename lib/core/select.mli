(** Representative path selection (the paper's Algorithm 1).

    One factorization gives [A]'s left singular vectors: the SVD of
    [A], or of the smaller [G * R^T] ({!segment_svd}). Each candidate
    size [r] then re-slices [U_r], runs the pivoted-QR subset selection
    (Algorithm 2), builds the Theorem-2 predictor from [A], and
    evaluates the analytic worst-case error of Eqn (7) against the
    tolerance [eps]. *)

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
  (** {!Exact} below 4096 rows, {!Sketched} at or above — the default
      everywhere *)
  | Exact
  (** full Golub–Reinsch SVD of [A], or of [G * R^T] when [?factors]
      is given and n_S < m (with the randomized no-convergence
      fallback) *)
  | Sketched
  (** randomized range sketch ({!Linalg.Rsvd}): the production engine
      for large pools; the paper's fast singular-value decay (§4.2)
      keeps the quality gap small (experiment E19) *)

type sketch = {
  sketch_rank : int option;
  (** [None] (default) grows the range finder block by block until the
      exact Frobenius tail-energy fraction clears [eta^2] (the config's
      effective-rank threshold, squared because the tail is measured in
      energy, not linear sigma); [Some k] fixes it *)
  sketch_seed : int;
  (** the sketch is deterministic in this seed: same seed, same
      selection, bit-identical at any pool size *)
}
(** Every entry point that takes a sketch validates the record up
    front: [Invalid_argument] on [sketch_rank < 1] (a nonpositive fixed
    rank would otherwise run a silent rank-1 sketch with degraded
    selections). *)

val default_sketch : sketch

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
  ?factors:Linalg.Mat.t * Linalg.Mat.t ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  unit ->
  t
(** Section 4.1: select [r = rank A] rows; the predictor is exact
    (zero analytic error up to numerical noise) under the [Exact]
    engine, and [r = sketch rank] under [Sketched]. [factors] is
    [(g, sigma)] with [a = g * sigma], for {!segment_svd};
    [Invalid_argument] when the shapes do not match [a]. Through it
    the exact set may be other rows than [a]'s own SVD picks, equally
    exact (Theorem 1). *)

val approximate :
  ?config:Config.t ->
  ?schedule:schedule ->
  ?engine:engine ->
  ?sketch:sketch ->
  ?factors:Linalg.Mat.t * Linalg.Mat.t ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  eps:float ->
  t_cons:float ->
  unit ->
  t
(** Algorithm 1. Raises [Invalid_argument] when [eps <= 0] or
    [t_cons <= 0]. Default schedule is [Bisection], default engine
    {!Auto}; [factors] as for {!exact}. Under [Sketched] only the
    subset-selection basis is approximate — every candidate predictor
    and its analytic error are still built from the true [a]. *)

(* lint: allow-next unused-export: test_properties checks exact and approximate's segment route through it *)
val segment_svd : g:Linalg.Mat.t -> sigma:Linalg.Mat.t -> Linalg.Svd.t
(** Lemma 1 as the exact engine's route when [factors] is given and
    [sigma] is n_S x m with n_S < m: with [transpose sigma = Q R]
    (unpivoted), [A = g * sigma = (g * R^T) Q^T] and [Q] is
    orthonormal, so [Svd.factor ~vectors:Left] of the n x n_S
    [g * R^T] gives [A]'s left singular vectors and values up to
    rounding ([s] has n_S entries; [A]'s others are zeros). [v] has
    [A]'s m rows and no columns, so {!Linalg.Svd.rank}'s default
    tolerance is [A]'s. Raises {!Linalg.Svd.No_convergence}. *)

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
  (** exact Frobenius tail-energy fraction of A outside the sketched
      factorization, for a fixed rank too *)
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
