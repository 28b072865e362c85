(** Linear least squares [min_x ||a x - b||_2]. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** QR-based solve for full-column-rank [a] with [m >= n]; falls back to
    the SVD minimum-norm solution when [a] is rank deficient or wide. *)

val solve_min_norm : Mat.t -> Vec.t -> Vec.t
(** Always uses the SVD pseudo-inverse (minimum-norm least-squares
    solution). *)

val solve_mat : Mat.t -> Mat.t -> Mat.t
(** [solve_mat a b] solves one least-squares problem per column of [b];
    result is [n x cols b]. Column [j] is bit-identical to
    [solve a (Mat.col b j)]; a rank-deficient or wide [a] is factored
    by the SVD once for all columns. *)

val residual_norm : Mat.t -> Vec.t -> Vec.t -> float
(** [residual_norm a x b] is [||a x - b||_2]. *)
