(** Fault injection for post-silicon measurement matrices.

    Real silicon data is dirty: scan chains fail (missing
    measurements), TDCs glitch or stick at a code (outliers), whole
    dies drop out mid-test, and per-die calibration drifts. This
    module corrupts a clean [dies x paths] delay matrix (as drawn by
    {!Monte_carlo}) under a configurable fault model so the robust
    prediction layer ({!Core.Robust}) can be exercised and measured.

    Composable with {!Measurement}: the benign quantization/jitter
    model is applied to every surviving entry before the gross faults,
    mirroring the physical signal chain (sensor noise first, then data
    loss and corruption). *)

type spec = {
  path_dropout : float;  (** per-entry missing probability, in [0, 1] *)
  die_dropout : float;  (** whole-die missing probability *)
  outlier_rate : float;  (** per-entry gross-error probability *)
  outlier_scale : float;
      (** gross error magnitude as a fraction of the reading (the
          injected error is uniform in [0.5, 1.5] x this, either sign) *)
  stuck_rate : float;  (** per-entry stuck-TDC probability *)
  stuck_code_ps : float;  (** the code a stuck TDC returns, in ps *)
  drift_sigma_ps : float;
      (** per-die additive calibration drift, N(0, sigma), in ps *)
}

val none : spec
(** All rates zero: {!inject} is the identity (modulo the measurement
    model). *)

val is_none : spec -> bool

val validate : spec -> unit
(** Raises [Invalid_argument] on rates outside [0, 1] or non-finite /
    negative magnitudes. *)

type stats = {
  missing_entries : int;  (** entries masked out (incl. dropped dies) *)
  dropped_dies : int;
  outlier_entries : int;
  stuck_entries : int;
  drifted_dies : int;
  total_entries : int;
}

type injected = {
  data : Linalg.Mat.t;
      (** corrupted matrix; missing entries hold [nan] *)
  mask : bool array array;
      (** [dies x paths]; [true] = the entry was measured. Outliers and
          stuck codes are {e present} (the screen must find them) —
          the mask only records data loss. *)
  stats : stats;
}

val inject :
  ?measurement:Measurement.model -> spec -> Rng.t -> Linalg.Mat.t -> injected
(** [inject spec rng clean] corrupts a copy of [clean]. Deterministic
    in [rng]. Default [measurement] is {!Measurement.ideal}. *)

val of_string : string -> (spec, string) result
(** Parse a CLI spec like ["dropout=0.1,outliers=0.01,stuck=0.005"].
    Fields: [dropout]/[path-dropout], [die-dropout], [outliers],
    [outlier-scale], [stuck], [stuck-code], [drift]; all optional,
    unknown fields and malformed numbers are errors. *)

val to_string : spec -> string
(** Inverse of {!of_string} (omitting fields at their defaults). *)
