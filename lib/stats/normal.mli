(** The standard normal distribution and scalar Gaussian random variables. *)

val pdf : float -> float

val cdf : float -> float
(** Standard normal CDF, accurate to ~1e-15 via the complementary error
    function. *)

val quantile : float -> float
(** Inverse CDF. Acklam's rational approximation refined by one Halley
    step; accurate to ~1e-13 on (0, 1). Raises [Invalid_argument]
    outside (0, 1). *)

type gaussian = { mean : float; std : float }
(** A scalar Gaussian N(mean, std^2); [std >= 0]. *)

val cdf_of : gaussian -> float -> float
(** [cdf_of g x] is P(X <= x) for X ~ g; degenerate [std = 0] is a step. *)
