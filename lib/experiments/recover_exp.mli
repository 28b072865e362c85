(** E20 — kill/recovery soak: durability under repeated SIGKILL.

    Forks a durability-armed {!Serve} server (observe WAL + periodic
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
    journal high-water mark read at the next boot. The client mirrors
    the observe handler bit-exactly to rebuild the journaled record
    stream, feeds it to a fresh uninterrupted reference
    {!Serve.Monitor}, and requires the same state (counters exact,
    cusum/var_ratio within 1e-12) as the much-killed server reports.

    Gates ([ok]): every armed kill lands; zero acked-but-lost
    observations; zero wrong answers (predictions bit-equal to the
    offline predictor, acks consistent); zero failures outside kill
    windows; recovered state matches the reference; generation counter
    strictly increases across restarts; each restart answers within
    [recovery_bound_s]; the final unkilled cycle exits cleanly. *)

type result = {
  bench : string;
  n_paths : int;
  cycles : int;  (** kill cycles (the final clean cycle is extra) *)
  kills : int;  (** SIGKILLs that actually landed *)
  batches_sent : int;
  acked_dies : int;  (** dies the server acked as queued *)
  journaled : int;  (** WAL high-water mark at the end *)
  observed_final : int;
  lost_acked : int;  (** acked dies missing from the recovered state *)
  wrong_answers : int;
  clean_failures : int;  (** protocol failures outside kill windows *)
  max_recovery_s : float;  (** slowest restart-to-first-answer *)
  recovery_bound_s : float;
  state_match : bool;  (** recovered == uninterrupted reference *)
  generations : int list;  (** serving generation seen after each boot *)
  gen_monotonic : bool;
  server_clean_exit : bool;  (** final cycle's shutdown handshake *)
  ok : bool;
}

val recovery_bound_s : float
(** Restart-to-first-answer budget, seconds: artifact load + checkpoint
    load + WAL replay + listen, plus at most one reselect cooldown —
    replay itself never reselects. *)

val run : ?oc:out_channel -> ?out:string -> Profile.t -> result
(** Run the soak (quick: 6 kill cycles; full: 20) and print a summary
    to [oc]; with [out], also write the JSON report there
    ([BENCH_e20.json]). *)
