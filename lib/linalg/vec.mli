(** Dense vectors of floats.

    A vector is a plain [float array]; this module collects the numerical
    helpers used across the library so callers never hand-roll loops. *)

type t = float array

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

(* lint: allow-next unused-export: test helper: measures residuals *)
val norm_inf : t -> float

val norm1 : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without the intermediate allocation. *)

(* lint: allow-next unused-export: test helper: compares kernel outputs *)
val equal : ?tol:float -> t -> t -> bool
(** Pointwise comparison with absolute tolerance [tol] (default [1e-12]). *)
