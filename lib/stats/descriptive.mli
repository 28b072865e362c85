(** Descriptive statistics over float arrays. *)

val mean : float array -> float

(* lint: allow-next unused-export: [stddev] runs it; test_stats pins it *)
val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for n < 2. *)

val stddev : float array -> float

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when either side is constant. *)

val quantile : float array -> float -> float
(** [quantile xs p] is the linear-interpolation empirical quantile,
    [p] in [0, 1]. Raises [Invalid_argument] on an empty array or [p]
    outside [0, 1]. Does not modify [xs]. *)
