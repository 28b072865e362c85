(** Cholesky factorization of symmetric positive-definite matrices. *)

exception Not_positive_definite

val factor : Mat.t -> Mat.t
(** [factor a] returns the lower-triangular [l] with [a = l * transpose l].
    Raises {!Not_positive_definite} if a pivot is not strictly positive,
    [Invalid_argument] if [a] is not square. Only the lower triangle of
    [a] is read. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve l b] solves [l l^T x = b] given the factor from {!factor}. *)
