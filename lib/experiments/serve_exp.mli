(** E14 — serving throughput: amortizing the one-time selection.

    The paper's economics hinge on doing the expensive work (SSTA,
    path extraction, SVD, selection) once per design, then predicting
    each die's unmeasured paths with a cheap linear apply. This
    experiment quantifies that amortization with the actual service:

    - {b cold}: the full pipeline (netlist -> SSTA -> extraction ->
      selection -> predict) re-run per die, as [pathsel select] would;
    - {b warm in-process}: the server's request handler on a loaded
      artifact, no socket;
    - {b warm socket}: full newline-delimited-JSON round trips through
      a spawned [Serve.run] child over a Unix-domain socket.

    Sweeps batch size (1 / 16 / 64 / 256), reports dies/second, checks
    the served predictions are bit-identical to the in-process
    predictor, and writes the machine-readable summary to
    [BENCH_e14.json] when [~out] is given. *)

val run : ?oc:out_channel -> ?out:string -> Profile.t -> unit
(** Prints the table to [oc] (default [stdout]); writes
    [BENCH_e14.json]-style JSON to [out] when given. E14 has no gate:
    a wire bug shows as [bit_identical: false] in the report. Raises
    [Core.Errors.Error] when the served run fails, including a server
    child that does not exit cleanly. *)
