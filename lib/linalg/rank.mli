(** Numerical rank of a dense matrix. *)

val of_mat : ?tol:float -> Mat.t -> int
(** SVD-based numerical rank (robust). *)
