(** E19 — sketched selection: quality against the exact engine, and
    wall-clock scaling on streamed sparse pools up to a million paths.

    Two sections:

    - {b quality}: on circuit pools small enough for the dense exact
      engine, both engines select at the same matched size [r] (the
      size Algorithm 1 picked under the exact engine at the 5%
      tolerance). Columns compare the analytic worst-case error of
      Eqn (7), the Monte-Carlo RMS error (e2), and the selected-set
      overlap.
    - {b scaling}: synthetic sparse pools built with
      {!Timing.Pool_stream.synthetic} at 10k / 100k / 1M paths; the
      sketch consumes the pool only through the CSR mat-mul operator.
      Timings split stream-build / range finder / pivoted QR so the
      report shows where the time goes, and the tail column is the
      exact Frobenius tail-energy fraction the range finder reached.

    [ok] gates on the worst-case error ratio staying within 1.25x of
    exact across the quality pools AND the pools at or below 50k paths
    finishing inside the wall budget AND every scaling pool's exact
    tail-energy fraction being at most [eta^2]. [smoke] shrinks the run to one
    quality pool and one 50k-path scaling pool — the [make sketch-smoke]
    CI gate. The JSON report carries the {!Host} core-count caveat,
    since single-core CI hosts make absolute wall-clock figures
    unrepresentative. *)

type quality_row = {
  qname : string;
  q_paths : int;
  q_vars : int;
  rank_exact : int;           (** rank(A) from the exact SVD *)
  q_sketch_rank : int;        (** rank of the sketched factorization *)
  r_matched : int;            (** selection size both engines use *)
  eps_exact : float;          (** Eqn-(7) worst-case error, exact basis *)
  eps_sketch : float;         (** same, sketched basis *)
  worst_ratio : float;        (** eps_sketch / eps_exact *)
  rms_exact : float;          (** MC e2, exact basis *)
  rms_sketch : float;
  rms_ratio : float;
  overlap : float;            (** fraction of exact picks also picked *)
  t_exact_s : float;
  t_sketch_s : float;
}

type scale_row = {
  s_paths : int;
  s_segments : int;
  s_vars : int;
  s_nnz : int;                (** nonzeros across G and Sigma *)
  build_s : float;            (** streamed CSR construction *)
  sketch_s : float;           (** range finder to the tail-energy stop *)
  qr_s : float;               (** pivoted QR subset selection *)
  total_s : float;
  s_sketch_rank : int;
  s_tail : float;             (** exact achieved tail-energy fraction *)
  s_selected : int;
}

type result = {
  quality : quality_row list;
  scaling : scale_row list;
  worst_ratio_max : float;
  budget_s : float;
  within_budget : bool;
  ok : bool;
}

val run : ?oc:out_channel -> ?out:string -> ?smoke:bool -> Profile.t -> result
(** Runs the experiment, prints a table to [oc] (default stdout), and
    writes a JSON report to [out] when given (BENCH_e19.json from the
    bench harness). *)
