(** Post-silicon diagnosis — the extension the paper's Section 7 plans
    ("we also plan to incorporate our framework into post-silicon
    diagnosis in the future").

    Given the measured delays of the representative paths on one die,
    the MMSE estimate of the underlying variation vector is

    [x_hat = A_r^T (A_r A_r^T)^+ (d_r - mu_r)],

    the minimum-norm x consistent with the measurements. Projecting
    [x_hat] back onto the variable space ranks which process parameters
    deviate most on this die — separating a die-to-die shift from a
    localized within-die region or a single outlier gate — which is
    exactly the localization post-silicon debug needs. *)

type t

type attribution = {
  var : Timing.Variation.var_key;
  z_score : float;   (** estimated deviation of that variable, in sigmas *)
}

val build : pool:Timing.Paths.t -> rep:int array -> t
(** [rep] must be sorted and distinct (the representative set from
    {!Select}). *)

(* lint: allow-next unused-export: [attribute] runs it; test_extensions pins it *)
val estimate_x : t -> measured:Linalg.Vec.t -> Linalg.Vec.t
(** Minimum-norm variation estimate for one die; ordered like
    [Timing.Paths.var_keys]. *)

val attribute : ?top:int -> t -> measured:Linalg.Vec.t -> attribution list
(** The [top] (default 10) variables with the largest estimated
    deviation magnitude, most deviant first. *)

val die_to_die_shift : t -> measured:Linalg.Vec.t -> float
(** Average estimated deviation of the level-0 (die-wide) region
    variables — the global process corner of the die. *)

val predicted_failures :
  t -> measured:Linalg.Vec.t -> eps:Linalg.Vec.t -> t_cons:float -> int list
(** Indices (into the pool) of non-representative target paths flagged
    by the guard-banded test on this die. [eps] is the per-path
    guard-band fraction vector from {!Select} (length = number of
    remaining paths). *)
