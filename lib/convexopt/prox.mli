(** Proximal operators and projections used by the solver. *)

(* lint: allow-next unused-export: [prox_linf] runs it; test_convexopt pins it *)
val project_l1_ball : float array -> float -> float array
(** [project_l1_ball v r] is the Euclidean projection of [v] onto the
    l1 ball of radius [r] (Duchi et al.'s O(n log n) algorithm).
    Raises [Invalid_argument] if [r < 0]. *)

val prox_linf : float array -> float -> float array
(** [prox_linf v tau] is [argmin_u (tau * ||u||_inf + 1/2 ||u - v||^2)],
    computed by Moreau decomposition:
    [v - tau * project_l1_ball (v / tau) 1]. [tau >= 0]. *)

(* lint: allow-next unused-export: test_convexopt's expected FISTA lasso answer *)
val soft_threshold : float -> float -> float
(** Scalar shrinkage [sign x * max 0 (|x| - tau)]. *)
