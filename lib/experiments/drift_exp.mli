(** E17 — self-healing soak: drift detection and automatic background
    re-selection under a mid-stream process shift.

    Forks a real [Serve.run] server with the monitor armed and
    [reload_from] pointing at its own artifact file, streams fully
    measured dies at it through the [observe] op, then injects a
    process shift mid-stream: every post-shift die carries a frozen
    per-path sensitivity scale (a systematic slowdown) plus the
    per-die additive calibration drift of {!Timing.Faults}. Asserts:

    - {b detection latency}: the drift detector leaves [healthy]
      within [detection_bound] post-shift dies;
    - {b auto-recovery}: the background re-selection retrains on the
      recent-die ring, saves a versioned artifact, and hot-swaps it
      (the artifact generation advances, the fingerprint carries the
      [[reselect ...]] provenance marker);
    - {b recovered accuracy}: the swapped-in predictor's error on
      held-out post-shift dies is at most [1.2x] the pre-drift
      baseline error;
    - {b zero wrong answers}: every prediction, before and after the
      swap, is bit-identical to the offline predictor of the artifact
      generation that served it;
    - {b zero server deaths}: the child exits 0 after a drain.

    Writes the machine-readable summary to [BENCH_e17.json] when
    [~out] is given. *)

type result = {
  bench : string;
  n_paths : int;
  shift : string;           (** the injected process-shift model *)
  pre_drift_dies : int;     (** healthy dies streamed before the shift *)
  baseline_err_ps : float;  (** gen-1 artifact on pre-shift holdout *)
  detection_dies : int;     (** post-shift dies until state left healthy *)
  detection_bound : int;    (** gate for [detection_dies] *)
  recovered : bool;         (** reselect ran and the generation advanced *)
  recovery_err_ps : float;  (** swapped artifact on post-shift holdout *)
  recovery_ratio : float;   (** recovery over baseline error; gate <= 1.2 *)
  reselects : int;
  reselect_failures : int;
  reselect_ms : float;      (** server-reported re-selection wall time *)
  generation : int;         (** final artifact generation (must be >= 2) *)
  wrong_answers : int;      (** must be 0 *)
  request_failures : int;   (** must be 0 *)
  server_exit_ok : bool;
  ok : bool;                (** all gates hold *)
}

val run : ?oc:out_channel -> ?out:string -> Profile.t -> result
(** Prints progress to [oc] (default [stdout]); writes
    [BENCH_e17.json]-style JSON to [out] when given. The [quick]
    profile is the smoke-sized soak; [full] streams more dies. *)
