(** Moore–Penrose pseudo-inverse. *)

(* lint: allow-next unused-export: [solve_gram] runs it; test_linalg pins it *)
val compute : ?tol:float -> Mat.t -> Mat.t
(** SVD-based pseudo-inverse; singular values below [tol] (default
    [max m n * epsilon * s_max]) are treated as zero. *)

val solve_gram : Mat.t -> Mat.t -> Mat.t
(** [solve_gram g b] computes [pinv g * b] for a symmetric positive
    semi-definite [g], via Cholesky when [g] is definite and the SVD
    pseudo-inverse otherwise. This is the [(A_r A_r^T)^{-1}] kernel of
    the paper's Theorem 2, which must tolerate a singular Gram matrix. *)
