(** Fault-tolerant Theorem-2 prediction.

    The paper's optimal linear predictor assumes every representative
    path is measured perfectly on every die. This module survives
    dirty silicon data ({!Timing.Faults}): it screens gross errors
    with a median-absolute-deviation test, detects missing entries
    (encoded as [nan]), and re-derives the Theorem-2 predictor on the
    surviving measurement subset of each die.

    The full-selection Gram [A_r A_r^T] and cross product
    [A_r A_m^T] are the blocks {!Predictor.build} already formed for
    the Theorem-2 solve, so a robust predictor is just a view of the
    base predictor ({!Predictor.gram}, {!Predictor.cross}); a die that
    lost [k] of its [r] measurements then costs one [(r-k) x (r-k)]
    Cholesky solve on submatrices of those blocks — no refactorization
    of [A]. Dies sharing a survivor pattern share the solve. When the
    reduced Gram is ill-conditioned (estimated from the Cholesky pivot
    ratio), a Tikhonov ridge scaled to the Gram's trace restores
    solvability at a small bias cost. *)

type t

val of_predictor : Predictor.t -> t
(** The robust view of a built predictor; allocates nothing. On clean
    data it predicts exactly as the predictor itself. *)

(** {1 Screening} *)

type screen_report = {
  mask : bool array array;  (** [dies x r]; [true] = entry usable *)
  missing : int;  (** non-finite entries *)
  outliers : int;  (** finite entries rejected by the MAD screen *)
  clean : bool;  (** no entry rejected *)
}

val screen : t -> measured:Linalg.Mat.t -> screen_report
(** Per-path (column) MAD screen over the die population, at 6 robust
    sigmas (on clean Gaussian data ~2e-9 false rejects per entry), plus
    missing-entry detection. Columns with fewer than 4 finite entries,
    or a zero MAD (degenerate distribution, e.g. coarse quantization),
    only get the missing-entry check. *)

(** {1 Prediction} *)

type prediction = {
  predicted : Linalg.Mat.t;  (** [dies x (n - r)] *)
  screened : screen_report;
  resolves : int;  (** distinct reduced systems solved *)
  ridge_fallbacks : int;  (** reduced systems needing the ridge *)
  dead_dies : int;  (** dies predicted from the mean only *)
}

val predict_all : ?cond_limit:float -> t -> measured:Linalg.Mat.t -> prediction
(** Screen, then predict every die from its surviving measurements.
    When the screen rejects nothing the baseline predictor is applied
    verbatim, so clean data reproduces {!Predictor.predict_all}
    bit-for-bit. Always returns finite predictions. A reduced Gram
    whose Cholesky pivot ratio squared exceeds [cond_limit] (default
    1e10) takes the Tikhonov ridge; the knob exists so a test can force
    that path on a well-conditioned pool. *)

val metrics : prediction -> truth:Linalg.Mat.t -> Evaluate.metrics
