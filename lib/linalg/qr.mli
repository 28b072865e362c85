(** Householder QR factorization, with optional column pivoting.

    For an [m]x[n] input [a], the factorization is [a * p = q * r] where
    [q] is [m]x[k] with orthonormal columns ([k = min m n]), [r] is [k]x[n]
    upper triangular, and [p] a column permutation (the identity when
    factored without pivoting). *)

exception Rank_deficient of string
(** Raised by {!solve_lstsq} when a diagonal entry of [r] is exactly
    zero. {!Lstsq} catches it and falls back to the SVD minimum-norm
    solution. *)

type t

val factor : Mat.t -> t
(** Plain Householder QR (no pivoting). *)

val factor_pivoted : Mat.t -> t
(** Businger–Golub QR with column pivoting: at every step the remaining
    column of largest residual norm is moved to the front, so
    [|r.(0,0)| >= |r.(1,1)| >= ...]. This is the subset-selection
    workhorse of the paper's Algorithm 2. *)

(* lint: allow-next unused-export: test_linalg checks the factorizations through it *)
val q : t -> Mat.t
(** Thin orthogonal factor, [m]x[min m n]. *)

val r : t -> Mat.t
(** Upper-triangular factor, [min m n]x[n], columns in pivoted order. *)

val perm : t -> int array
(** [perm f] maps pivoted position [j] to the original column index;
    the identity permutation when factored without pivoting. *)

(* lint: allow-next unused-export: [solve_lstsq] runs it; test_linalg pins it *)
val apply_qt : t -> Vec.t -> Vec.t
(** [apply_qt f b] is [transpose q_full * b] (length [m]), applied
    implicitly from the stored Householder reflectors. *)

val solve_lstsq : t -> Vec.t -> Vec.t
(** Least-squares solution of [a x = b] for a full-column-rank [a]
    ([m >= n]). Raises [Invalid_argument] when [m < n] and
    {!Rank_deficient} when [r] has an exactly zero diagonal entry
    ([Core.Errors] maps it to a [Numerical] error). *)
