(** The optimal linear predictor of Theorem 2 and its analytic error.

    With representative rows [A_r] and remaining rows [A_m], the MMSE
    predictor of the remaining delays from the measured ones is

    [d_Pm = mu_m + A_m A_r^T (A_r A_r^T)^+ (d_Pr - mu_r)],

    and the prediction error is [Delta = Omega x] with
    [Omega = A_m A_r^T (A_r A_r^T)^+ A_r - A_m], a zero-mean Gaussian
    whose per-path standard deviation is the row norm of [Omega].

    A predictor is a pure function of [A], [mu] and the representative
    set: {!build} is the only constructor, and the artifact store
    rebuilds a loaded artifact's predictor with it rather than
    persisting any of the values below. [Omega] itself
    ([(n - r) x m], the largest matrix [build] forms) is reduced to its
    row norms and not kept. *)

type t

val build :
  a:Linalg.Mat.t -> mu:Linalg.Vec.t -> rep:int array -> t
(** [build ~a ~mu ~rep] splits rows of [a] into the representative set
    [rep] (must be sorted, distinct, non-empty, in range) and the
    remainder, and forms the predictor. Raises [Invalid_argument] on a
    bad [rep] or a [mu] whose length is not the row count of [a]. *)

val rep_indices : t -> int array

val rem_indices : t -> int array
(** Complement of [rep_indices], increasing. *)

val weights : t -> Linalg.Mat.t
(** The [(n - r) x r] prediction weight matrix
    [W = A_m A_r^T (A_r A_r^T)^+]. Shared (not copied): do not
    mutate. *)

val gram : t -> Linalg.Mat.t
(** The [r x r] Gram block [A_r A_r^T] the weights were solved from.
    Shared (not copied): do not mutate. *)

val cross : t -> Linalg.Mat.t
(** The [r x (n - r)] cross block [A_r A_m^T]. Shared (not copied): do
    not mutate. {!Robust} re-solves reduced systems from these two
    blocks when measurements are missing. *)

val mu_rep : t -> Linalg.Vec.t
(** Means of the representative paths (ordered as [rep_indices]).
    Shared (not copied): do not mutate. *)

val mu_rem : t -> Linalg.Vec.t
(** Means of the remaining paths (ordered as [rem_indices]). Shared
    (not copied): do not mutate. *)

val predict : t -> measured:Linalg.Vec.t -> Linalg.Vec.t
(** [predict t ~measured] maps the measured representative delays
    (ordered as [rep_indices]) to predicted remaining delays (ordered
    as [rem_indices]). *)

val predict_all : t -> measured:Linalg.Mat.t -> Linalg.Mat.t
(** Row-per-sample batch version: [measured] is
    [n_samples x r]; result is [n_samples x (n - r)]. *)

val full_delays : t -> measured:Linalg.Mat.t -> Linalg.Mat.t
(** Every path's delay per die: the [n_samples x n] matrix holding the
    measured representative delays in the [rep_indices] columns and
    {!predict_all}'s predictions in the [rem_indices] columns. *)

val error_sigmas : t -> Linalg.Vec.t
(** Per-remaining-path standard deviation of the prediction error
    (row norms of [Omega]). *)

val worst_case_error : t -> kappa:float -> float
(** [max_i kappa * sigma_i] — the numerator of the paper's Eqn (7). *)

val epsilon_r : t -> kappa:float -> t_cons:float -> float
(** Eqn (7): [worst_case_error / t_cons]. *)

val per_path_epsilon : t -> kappa:float -> t_cons:float -> Linalg.Vec.t
(** Per-path guard-band fractions [kappa * sigma_i / t_cons]
    (Section 4.3's tighter per-path bound). *)
