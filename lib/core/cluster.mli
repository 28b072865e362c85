(** Clustered representative-path selection — the speedup the paper
    sketches in Section 4.4 ("if the number of target paths is very
    large, we can apply a clustering procedure to form clusters of
    paths of smaller size").

    Paths are clustered by the cosine similarity of their sensitivity
    rows (spherical k-means); Algorithm 1 then runs inside each cluster
    with the same tolerance, and the union of the per-cluster
    representatives is returned together with one merged predictor
    built on the union. Because each cluster's SVD is much smaller than
    the global one, the end-to-end cost drops superlinearly; the E7
    ablation measures the size/quality gap against direct selection. *)

type t = {
  indices : int array;         (** union of representatives, sorted *)
  predictor : Predictor.t;     (** Theorem-2 predictor on the union *)
  assignments : int array;     (** cluster id per path *)
  cluster_sizes : int array;
  eps_r : float;               (** analytic Eqn-(7) error of the merged
                                   predictor *)
}

val kmeans_rows : rng:Rng.t -> k:int -> Linalg.Mat.t -> int array
(** Spherical k-means over the rows of a matrix (at most 30 Lloyd
    iterations); returns a cluster id per row. [k] is clamped to the
    row count. Empty clusters are re-seeded from the farthest row. *)

val select :
  ?config:Config.t ->
  ?seed:int ->
  k:int ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  eps:float ->
  t_cons:float ->
  unit ->
  t
(** Cluster, select per cluster at tolerance [eps], merge. Raises
    [Invalid_argument] when [k < 1], [eps <= 0] or [t_cons <= 0]. *)
