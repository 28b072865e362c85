(** Randomized truncated SVD (Halko–Martinsson–Tropp) — the primary
    selection engine for large path pools.

    A blocked Gaussian range finder with power iterations builds an
    orthonormal basis [Q] of A's leading range; the deterministic SVD of
    the small projected problem [A^T Q] yields the leading singular
    values and vectors far faster than the full Golub–Reinsch
    factorization when the rank is far below [min m n]. The paper's
    Algorithm 1 only needs the leading [U_r], and its Section 4.2
    effective-rank observation (fast singular-value decay) is precisely
    the regime where the sketch is accurate and the range finder stops
    early — so {!Core.Select} runs on this by default above a row-count
    threshold (ablation E8 and experiment E19 measure the quality gap).

    The factorization consumes its input only through {!op} mat-mul
    callbacks, so a million-path pool held as a sparse incidence
    product ({!Sparse}) is never densified. All kernels follow the PR 3
    determinism contract: the sketch is drawn serially from the seed
    and every parallel product is bit-identical at any pool size. *)

type t = {
  u : Mat.t;   (** m x k *)
  s : Vec.t;   (** leading singular values, non-increasing *)
  v : Mat.t;
  (** n x 0: the right factor is not formed (Algorithm 1 reads only
      [u] and [s]); its row count keeps {!Svd.rank}'s default
      tolerance through {!to_svd} *)
}

type op = {
  rows : int;
  cols : int;
  frob2 : float;
  (** [||A||_F^2], derived from A by whoever builds the operator; the
      tail-energy stop measures against it *)
  mul : Mat.t -> Mat.t;
  (** [mul xt] is [(A X)^T] ([k x rows]) for the [cols x k] block [X]
      given column-major, as its [k x cols] transpose [xt] *)
  tmul : Mat.t -> Mat.t;
  (** [tmul yt] is [(A^T Y)^T] ([k x cols]) for the [rows x k] block
      [Y] given column-major, as its [k x rows] transpose [yt] *)
}
(** A linear operator in matrix-free form: the factorization only ever
    multiplies blocks by [A] and [A^T], so callers choose the storage
    (dense, CSR, or an implicit product such as [G * Sigma]). Blocks go
    in and come out column-major, the range finder's own layout, so no
    call transposes; [k], the block's width, is far below [rows]. *)

val op_of_mat : Mat.t -> op
(** A dense matrix as an operator, through its CSR form: the products
    skip [A]'s zeros and keep the bits of [Mat.mul_nt xt a] and
    [Mat.mul yt a]. *)

type stop =
  | Rank of int
  (** one block of [k + 8] columns, truncated to the leading [k]
      triplets ([k] clamped to [[1, min rows cols]]) *)
  | Tail_energy of float
  (** append 16-column blocks until the energy outside the captured
      range is at most this fraction of [||A||_F^2], or the width
      reaches [min rows cols]; every column is kept *)

val factor_op : stop:stop -> seed:int -> op -> t * float
(** The range finder. Each pass draws a Gaussian block, power-iterates
    it twice with the span of the basis [Q] built so far projected out,
    orthonormalizes it and appends it to [Q] and its rows [Q_i^T A] to
    [B]. The
    orthonormalization is CholQR2 (two Cholesky-QR passes — two tall
    Gram products instead of column-at-a-time Gram-Schmidt) with a
    rank-revealing Gram-Schmidt fallback on numerically rank-deficient
    blocks. One exact {!Svd.factor} of [B = Q^T A] ([width x cols] —
    never pool-sized), forming only Z of [B^T = W S Z^T], closes the
    loop: [u = Q Z].

    [Q] and every iterate are held column-major across the loop, as
    {!op} takes and returns them, so the Gram products, triangular
    solves and projections run down contiguous columns, the operator's
    outputs are used as they come ([tmul] of [Q_i] is [B]'s next rows),
    and only the returned [u] is transposed. Each kernel sums every
    element from the same products in the same ascending order, from
    +0.0, as the row-major products it replaced; products commute, a
    sum from +0.0 never holds -0.0, and a dropped zero-skip matters only
    for non-finite factors, which finite operator outputs never give.
    So the factorization is bit-identical to the row-major one.

    The tail-energy stop is exact, not estimated: because [Q] is
    orthonormal, [||A - Q Q^T A||_F^2 = ||A||_F^2 - ||B||_F^2], and each
    block subtracts its own [||A^T Q_i||_F^2] from the residual. Blocks
    are 16 columns: the first block is then the old rank-8 sketch (8 +
    8 oversampling), the stop overshoots the needed width by at most
    15 columns, and a block is wide enough that each pass over a
    million-row pool does useful work per operator call.

    Returns the factorization and the exact achieved tail
    [(||A||_F^2 - sum of kept s^2) / ||A||_F^2] for either stop; a zero
    operator returns an empty factorization with tail 0. Deterministic
    in [seed]: the same seed yields a bit-identical factorization (and
    hence selection) at any pool size. Raises [Invalid_argument] on an
    empty operator or a nonpositive tail energy. *)

val factor : rank:int -> seed:int -> Mat.t -> t
(** [factor ~rank ~seed a] is [fst (factor_op ~stop:(Rank rank) ~seed
    (op_of_mat a))]: the leading [rank] singular triplets of a dense
    matrix. *)

val to_svd : t -> Svd.t
(** Repackage as a (truncated) {!Svd.t} so downstream code (subset
    selection, effective rank) can consume it unchanged. Its [v] has no
    columns, so {!Svd.reconstruct} and {!Svd.pinv} do not apply. *)
