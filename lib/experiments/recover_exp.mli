(** E20 — kill/recovery soak: durability under repeated SIGKILL.

    Spawns a durability-armed {!Serve} server (observe WAL + periodic
    checkpoints), drives live observe/predict traffic through
    {!Serve.Client}, and lets a {!Chaos.Killer} SIGKILL the process at a
    uniformly random point each cycle — mid-append, mid-fsync,
    mid-checkpoint-rename included. Each restart must recover from the
    last checkpoint plus the WAL suffix.

    The verdict leans on an ordering property: batches ride one
    connection and are journaled under the server's journal lock, and
    the fsync precedes the ack, so acked batches appear in the journal
    whole and in send order. The single ambiguity per incarnation — its
    final unacked batch, which the kill may have caught before, during
    (torn tail) or after the append — is resolved exactly by the
    journal high-water mark read at the next boot. The client runs the
    server's own observe intake ({!Serve.observations}) to rebuild the
    journaled record stream, feeds it to a fresh uninterrupted reference
    {!Serve.Monitor}, and requires the same state (counters exact,
    cusum/var_ratio within 1e-12) as the much-killed server reports.

    Gates (the verdict [run] returns): every armed kill lands; zero
    acked-but-lost observations; zero wrong answers (predictions
    bit-equal to the offline predictor, acks consistent); zero failures
    outside kill windows; recovered state matches the reference;
    generation counter strictly increases across restarts; each restart
    answers within [recovery_bound_s]; the final unkilled cycle exits
    cleanly. *)

val run : ?oc:out_channel -> ?out:string -> Profile.t -> bool
(** Run the soak (quick: 6 kill cycles; full: 20), print a summary to
    [oc], and return [true] when every gate above holds; with [out],
    also write the JSON report there ([BENCH_e20.json]). *)
