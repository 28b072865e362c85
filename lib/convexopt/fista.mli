(** FISTA: accelerated proximal gradient for composite objectives
    [F(B) = f(B) + g(B)] with [f] smooth (L-Lipschitz gradient) and [g]
    prox-friendly, over matrix variables. *)

type problem = {
  grad_f : Linalg.Mat.t -> Linalg.Mat.t;
  (** gradient of the smooth part at the iterate *)
  prox_g : Linalg.Mat.t -> float -> Linalg.Mat.t;
  (** [prox_g v step] is [argmin_u (step * g(u) + 1/2 ||u - v||_F^2)] *)
  objective : Linalg.Mat.t -> float;
  (** full objective, for monitoring and the restart test *)
  lipschitz : float;  (** L; the step is 1/L *)
}

type stop = { max_iter : int; rel_tol : float }

type report = {
  solution : Linalg.Mat.t;
  iterations : int;
  objective_value : float;
  converged : bool;
}

val solve : ?stop:stop -> problem -> init:Linalg.Mat.t -> report
(** FISTA with function-value restart (O'Donoghue–Candès). Raises
    [Invalid_argument] when [lipschitz <= 0]. *)

val power_iteration_norm : Linalg.Mat.t -> float
(** Largest eigenvalue estimate of a symmetric PSD matrix (60 power
    iterations, then a Rayleigh quotient), for computing Lipschitz
    constants of quadratics. *)
