(** Baseline selection strategies from the paper's related work, for
    head-to-head comparison with Algorithm 1 (experiment E12).

    - {!random_selection}: the naive floor — r uniformly random target
      paths, predicted with the same Theorem-2 machinery.
    - {!feature_clustering}: Callegari et al. (the paper's [3]): cluster
      the target paths by {e structural features} (length, cell-type
      histogram, nominal delay, sigma) rather than by their variational
      sensitivities, then measure one medoid per cluster. The paper's
      critique — "it is not clear to what extent these features can
      bind the paths to their representative ones in the presence of
      variations" — is exactly what E12 quantifies.
    - {!representative_critical_path}: Liu & Sapatnekar (the paper's
      [7]): a single measurement maximally correlated with the circuit
      delay. Predicts the chip frequency well but, with one number, it
      cannot localize which target path fails; E12 shows the per-path
      error gap. *)

val random_selection :
  rng:Rng.t -> a:Linalg.Mat.t -> mu:Linalg.Vec.t -> r:int -> Predictor.t
(** [r] distinct uniform rows; raises [Invalid_argument] when [r]
    exceeds the path count or is non-positive. *)

type features = {
  length : float;        (** gates on the path *)
  nominal : float;       (** mu, ps *)
  sigma : float;
  cell_mix : float array;  (** normalized cell-kind histogram *)
}

(* lint: allow-next unused-export: [feature_clustering] runs it; tests pin it *)
val path_features : Timing.Paths.t -> int -> features

val feature_clustering :
  rng:Rng.t -> pool:Timing.Paths.t -> r:int -> Predictor.t
(** k-means over normalized feature vectors with [k = r]; the medoid
    (feature-space-closest member) of each cluster is measured. *)

val representative_critical_path :
  pool:Timing.Paths.t -> Predictor.t
(** The single target path whose delay correlates best with the
    statistical circuit delay (approximated as the max over the pool);
    measured alone, every other path is predicted from it. *)
