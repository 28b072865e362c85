(** Descriptive statistics over float arrays. *)

val mean : float array -> float

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for n < 2. *)

val stddev : float array -> float

val covariance : float array -> float array -> float
(** Unbiased sample covariance. Raises [Invalid_argument] on length
    mismatch. *)

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when either side is constant. *)

val quantile : float array -> float -> float
(** [quantile xs p] is the linear-interpolation empirical quantile,
    [p] in [0, 1]. Raises [Invalid_argument] on an empty array or [p]
    outside [0, 1]. Does not modify [xs]. *)

val approx_equal : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_equal a b] is true when
    [|a - b| <= max abs (rel * max |a| |b|)] — a combined
    absolute/relative tolerance test (defaults [rel = 1e-9],
    [abs = 1e-12]). False when either side is NaN; true for equal
    infinities. This is the sanctioned replacement for [(=)] on floats
    when exact equality ([Float.equal]) is not what you mean. *)
