(** Block-based statistical static timing analysis (the paper's [2],
    Blaauw et al.).

    Arrival times are carried in canonical first-order form:

    [t = mean + sum_r c_r x_r + c_eps * eps]

    where the [x_r] are the {e correlated} variables of the variation
    model (the quadtree region variables for both parameters) and [eps]
    is an independent standard Gaussian absorbing all purely random
    (per-gate) contributions. [max] is approximated with Clark's
    moment matching. A single topological sweep yields the circuit
    delay distribution and the timing yield analytically — the Monte
    Carlo of {!Monte_carlo.circuit_yield} is the reference it is tested
    against. *)

type canonical = {
  mean : float;
  coeffs : float array;   (** over the correlated-variable basis *)
  residual : float;       (** sigma of the lumped independent part *)
}

val sigma : canonical -> float
(** Total standard deviation. *)

(* lint: allow-next unused-export: [analyze] runs it; test_extensions pins it *)
val add_delay : canonical -> mean:float -> coeffs:float array -> residual:float
  -> canonical
(** Add a gate delay in canonical form (sums means and coefficients;
    residuals add in quadrature). *)

(* lint: allow-next unused-export: [analyze] runs it; test_extensions pins it *)
val clark_max : canonical -> canonical -> canonical
(** Clark's approximation of [max(a, b)], matching the first two
    moments and preserving the correlated structure. *)

type t = {
  circuit_delay : canonical;   (** statistical circuit delay *)
  node_arrivals : canonical array;  (** per signal code *)
  basis : Variation.var_key array;  (** correlated-variable order *)
}

val analyze : Delay_model.t -> t
(** One forward sweep over the timing graph. *)

val yield_at : t -> float -> float
(** [yield_at a t_cons] is the analytic [P(circuit delay <= t_cons)]
    under the Gaussian approximation of the circuit delay. *)

(* lint: allow-next unused-export: tests check SSTA against Monte Carlo with it *)
val quantile : t -> float -> float
(** [quantile a p] is the delay the circuit meets with probability
    [p]. *)
