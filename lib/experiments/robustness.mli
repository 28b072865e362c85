(** E8/E9 — production-robustness experiments beyond the paper.

    E8: Algorithm 1 driven by the exact SVD vs the randomized truncated
    SVD ({!Linalg.Rsvd}): selection sizes, achieved analytic error, and
    wall time on the largest benchmark.

    E9: sensitivity of the flow to non-ideal silicon measurement
    (quantization + jitter, {!Timing.Measurement}): MC errors and
    guard-banded failure detection with the measurement-aware band. *)

type ssta_row = {
  t_over_nominal : float;
  ssta_yield : float;
  mc_yield : float;
}

(* lint: allow-next unused-export: [run] runs it; test_experiments drives it small *)
val run_ssta : ?oc:out_channel -> Profile.t -> ssta_row list
(** E11: analytic yield curve of the SSTA substrate vs full Monte
    Carlo. *)

val run : ?oc:out_channel -> Profile.t -> unit
