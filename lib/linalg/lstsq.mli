(** Linear least squares [min_x ||a x - b||_2]. *)

(* lint: allow-next unused-export: oracle for [solve_mat]'s SVD fallback *)
val solve_min_norm : Mat.t -> Vec.t -> Vec.t
(** Always uses the SVD pseudo-inverse (minimum-norm least-squares
    solution). *)

val solve_mat : Mat.t -> Mat.t -> Mat.t
(** [solve_mat a b] solves one least-squares problem per column of [b];
    result is [n x cols b]. A tall full-rank [a] takes the QR solve
    ({!Qr.solve_lstsq}); a rank-deficient or wide [a] is factored by
    the SVD once for all columns, each column bit-identical to
    {!solve_min_norm}. *)
