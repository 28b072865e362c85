(** Singular value decomposition.

    [factor a] returns the thin SVD [a = u * diag s * transpose v] with
    [u : m x k], [s : k] (non-negative, non-increasing), [v : n x k],
    where [k = min m n]. *)

type t = { u : Mat.t; s : Vec.t; v : Mat.t }

(** Which singular vectors {!factor} forms. *)
type vectors =
  | Both  (** [u] and [v] *)
  | Left  (** [u] only *)
  | Values  (** neither: the singular values alone *)

exception No_convergence

val factor : ?vectors:vectors -> Mat.t -> t
(** Golub–Reinsch: Householder bidiagonalization followed by implicit-shift
    QR on the bidiagonal, on flat column-major storage. [vectors]
    (default [Both]) names the factors to form; a factor that is not
    formed comes back with its row count and zero columns ([u] is
    [m x 0], [v] is [n x 0]), so {!rank}'s default tolerance is the same
    for every choice. Skipping a factor changes no bit of the others or
    of [s]. Raises {!No_convergence} after 60 sweeps on one
    singular value (does not happen on finite inputs in practice), and
    [Invalid_argument] on NaN/infinite entries — checked up front, since
    non-finite input would otherwise corrupt the iteration's stopping
    tests. Callers wanting graceful degradation should catch
    {!No_convergence} and fall back to {!Rsvd} (see [Core.Select]). *)

val factor_jacobi : Mat.t -> t
(** One-sided Jacobi SVD. Slower; kept as an independent oracle for
    cross-checking {!factor} in tests. *)

val rank : ?tol:float -> t -> int
(** Numerical rank: number of singular values above [tol]. Default
    [tol = max m n * epsilon * s.(0)], with [m] and [n] the row counts
    of [u] and [v]. *)

val reconstruct : t -> Mat.t
(** [u * diag s * transpose v]. Needs both factors. *)

val pinv : ?tol:float -> t -> Mat.t
(** Moore–Penrose pseudo-inverse [v * diag 1/s * transpose u], zeroing
    singular values below [tol] (same default as {!rank}). Needs both
    factors. *)
