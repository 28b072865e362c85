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

    The verdict [run] returns is [true] when the worst-case error ratio
    stays within 1.25x of exact across the quality pools, the pools at
    or below 50k paths finish inside the wall budget, and every scaling
    pool's exact tail-energy fraction is at most [eta^2]. [smoke]
    shrinks the run to one quality pool and one 50k-path scaling pool —
    the [make sketch-smoke] CI gate. The JSON report carries the {!Host} core-count caveat,
    since single-core CI hosts make absolute wall-clock figures
    unrepresentative. *)

val run : ?oc:out_channel -> ?out:string -> ?smoke:bool -> Profile.t -> bool
(** Runs the experiment, prints a table to [oc] (default stdout),
    writes a JSON report to [out] when given (BENCH_e19.json from the
    bench harness), and returns the gate's verdict. *)
