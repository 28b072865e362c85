(** Row subset selection (the paper's Algorithm 2).

    Given the SVD [a = u s v^T] and a target size [r], apply QR with
    column pivoting to [u_r^T] (the transpose of the first [r] columns
    of [u]); the first [r] pivots name [r] rows of [a] that are (a)
    well-conditioned as a basis and (b) aligned with the dominant
    singular subspace. Those rows are the representative paths. *)

val rows_from_svd : Linalg.Svd.t -> r:int -> int array
(** The selected row indices, increasing. Raises [Invalid_argument]
    when [r] is outside [1, rows u]. *)

val nested_rows : Linalg.Svd.t -> int array
(** The incremental variant the paper alludes to ("this procedure can
    also be implemented incrementally"): one pivoted QR on the
    singular-value-weighted basis [(U diag s)^T] produces a pivot
    ORDER whose every prefix is a selection — Algorithm 1's loop over
    r then costs one factorization total instead of one per
    candidate. Weighting by the singular values makes the early
    pivots favour the dominant directions, so the small prefixes
    match per-r re-pivoting in practice (ablation E10). Returns the
    full pivot order (length = rows of [u]); take the first [r] (and
    sort) for a size-[r] selection. *)
