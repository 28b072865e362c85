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

type batch_row = {
  batch : int;  (** dies per request *)
  inproc_dies_per_s : float;
  socket_dies_per_s : float;
  socket_round_trip_ms : float;  (** mean per-request round trip *)
}

type result = {
  bench : string;
  n_paths : int;
  n_rep : int;
  cold_per_die_s : float;      (** mean of repeated full pipeline runs *)
  cold_256_s : float;          (** 256 x cold_per_die_s *)
  warm_256_socket_s : float;   (** one 256-die batch, socket round trip *)
  speedup_256 : float;         (** cold_256_s / warm_256_socket_s *)
  bit_identical : bool;        (** served = in-process, bit for bit *)
  rows : batch_row list;
}

val run : ?oc:out_channel -> ?out:string -> Profile.t -> result
(** Prints the table to [oc] (default [stdout]); writes
    [BENCH_e14.json]-style JSON to [out] when given. Raises
    [Core.Errors.Error] when the served run fails, including a server
    child that does not exit cleanly. *)
