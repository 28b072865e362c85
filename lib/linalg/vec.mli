(** Dense vectors of floats.

    A vector is a plain [float array]; this module collects the numerical
    helpers used across the library so callers never hand-roll loops. *)

type t = float array

val init : int -> (int -> float) -> t

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** [map2 f x y] applies [f] pointwise. Raises [Invalid_argument] on
    dimension mismatch. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

val norm_inf : t -> float

val norm1 : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without the intermediate allocation. *)

val sum : t -> float

val mean : t -> float

val max_elt : t -> float
(** Raises [Invalid_argument] on the empty vector. *)

val min_elt : t -> float

val argmax : t -> int

val equal : ?tol:float -> t -> t -> bool
(** Pointwise comparison with absolute tolerance [tol] (default [1e-12]). *)
