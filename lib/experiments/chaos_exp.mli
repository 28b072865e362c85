(** E16 — chaos soak: the serving invariants under wire-level faults.

    Forks a real [Serve.run] server (bounded queue, 2 s deadlines,
    SIGHUP reload armed), puts the {!Chaos} fault-injecting proxy in
    front of it with {e every} injector firing — delays, partial
    writes, mid-frame truncation, byte corruption, disconnects,
    accept-then-stall, EINTR storms — and asserts:

    - {b zero wrong answers}: every ["ok":true] response, faulted path
      or clean, is bit-identical to the offline predictor;
    - {b zero server deaths}: the child exits 0 after a drain;
    - {b bounded clean latency}: a direct (non-faulted) lane keeps its
      p99 under 2 s while the fault lanes rage;
    - {b hot reload mid-soak}: a SIGHUP swaps the artifact (fingerprint
      changes in [stats]) without failing a single clean-lane request;
    - {b retries win}: a final clean batch completes through the faulty
      proxy with bounded retries.

    Writes the machine-readable summary to [BENCH_e16.json] when
    [~out] is given. *)

type result = {
  bench : string;
  faults : string;              (** the {!Chaos.spec}, serialized *)
  requests_faulted : int;       (** sent through the proxy *)
  ok_faulted : int;
  gave_up : int;                (** retries exhausted; allowed, counted *)
  wrong_answers : int;          (** must be 0 *)
  clean_requests : int;         (** direct lane during the soak *)
  clean_failures : int;         (** must be 0 *)
  p99_clean_ms : float;         (** baseline, before the soak *)
  p99_soak_ms : float;          (** direct lane while faults rage *)
  throughput_dies_per_s : float;
  reloads : int;                (** server-reported; must be >= 1 *)
  reload_fingerprint_ok : bool; (** stats shows the v2 fingerprint *)
  final_batch_ok : bool;
  server_exit_ok : bool;
  shed : int;                   (** server-reported load shedding *)
  timeouts : int;               (** server-reported deadline expiries *)
  proxy_connections : int;
  proxy_corrupted : int;
  proxy_stalled : int;
  ok : bool;                    (** all invariants hold *)
}

val run : ?oc:out_channel -> ?out:string -> Profile.t -> result
(** Prints progress to [oc] (default [stdout]); writes
    [BENCH_e16.json]-style JSON to [out] when given. The [quick]
    profile is a short smoke-sized soak; [full] is the real one. *)
