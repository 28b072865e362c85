(** Sparse matrices in compressed sparse row (CSR) form.

    The path sensitivity matrices of this library are naturally sparse
    (a handful of non-zeros per gate), so the Monte Carlo and selection
    front-ends hold [A] and [Sigma] in CSR for their products
    ({!mul_dense_nt}, {!dense_mul}) and only densify for the
    factorizations that need it. The same two kernels run the range
    finder's operators on column-major blocks (see {!Rsvd.op}). *)

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;   (** length [rows + 1] *)
  col_idx : int array;   (** length [nnz], sorted within each row *)
  values : float array;  (** length [nnz] *)
}

val of_dense : ?tol:float -> Mat.t -> t
(** Entries with magnitude <= [tol] (default 0, so both zeros) are
    dropped; every other entry is kept, NaN included. *)

(* lint: allow-next unused-export: test helper: checks CSR kernels against dense *)
val to_dense : t -> Mat.t

(* lint: allow-next unused-export: the builders run it; test_sparse_rsvd pins it *)
val of_rows : int -> (int * float) list array -> t
(** [of_rows cols rows] builds from per-row (column, value) lists;
    duplicate columns within a row are summed. Raises
    [Invalid_argument] on out-of-range columns. *)

val init_rows : rows:int -> cols:int -> (int -> (int * float) list) -> t
(** Row-streamed constructor: [f i] produces row [i]'s (column, value)
    entries, which are appended to growable CSR buffers immediately —
    peak memory is the CSR itself plus one row's entries, so a
    million-row incidence matrix never exists in any denser form.
    Duplicate columns within a row are summed (sorted-merge order).
    Raises [Invalid_argument] on out-of-range columns. *)

val dims : t -> int * int

val nnz : t -> int

(* lint: allow-next unused-export: test_sparse_rsvd checks [of_rows] through it *)
val get : t -> int -> int -> float
(** O(log nnz-in-row). *)

val mul_dense_nt : Mat.t -> t -> Mat.t
(** [mul_dense_nt x a] is [x * transpose a] with [x] dense [n x m] and
    [a] sparse [k x m]; the result is dense [n x k]. This is the Monte
    Carlo kernel [X A^T] and the range finder's forward kernel, where
    [x] is a block held column-major, [k x cols] with [k] far below the
    pool size. Row-band parallel over the rows of [x] and
    bit-identical at any pool size. Each output element sums its
    stored terms in ascending column order from [+0.0], so for finite
    [x] the result is bit-identical to [Mat.mul_nt x (to_dense a)]:
    the skipped terms are [+-0] and cannot change the sum. Under
    [PATHSEL_CHECKS] the output is scanned for NaNs the inputs did not
    contain, as for the {!Mat} products. *)

val dense_mul : Mat.t -> t -> Mat.t
(** [dense_mul w a] is the dense x CSR product [w * a] ([w] is
    [n x k], [a] is [k x m], result [n x m]), in ikj order: row [k] of
    [a] scatters into row [i] of the result, so each output element
    sums its terms in ascending [k]. For finite [w] it is bit-identical
    to [Mat.mul w (to_dense a)]. The range finder's adjoint kernel
    ([w] a column-major block) and the Theorem-2 predictor's. Row-band
    parallel, bit-identical at any pool size, and NaN-checked like
    {!mul_dense_nt}. *)

(* lint: allow-next unused-export: test helper: checks CSR builders against dense *)
val equal_dense : ?tol:float -> t -> Mat.t -> bool
(** Structural comparison against a dense matrix. *)
