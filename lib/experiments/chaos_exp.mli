(** E16 — chaos soak: the serving invariants under wire-level faults.

    Spawns a real [Serve.run] server (bounded queue, 2 s deadlines,
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

val run : ?oc:out_channel -> ?out:string -> Profile.t -> bool
(** Prints progress to [oc] (default [stdout]), writes
    [BENCH_e16.json]-style JSON to [out] when given, and returns
    [true] when every invariant above holds. The [quick] profile is a
    short smoke-sized soak; [full] is the real one. *)
