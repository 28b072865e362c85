(** E18 — post-silicon decision workloads: importance-sampled yield
    estimation and per-die tunable-buffer configuration, offline and
    over a live server.

    Generates a small synthetic circuit, calibrates a timing
    constraint whose union-bound failure probability is 1e-4 (so the
    true failure probability is at most 1e-4 by construction), and
    then:

    - {b yield}: estimates the failure probability with the
      mean-shifted importance sampler ({!Yield.importance}) and with
      plain Monte Carlo at 25-125x the samples; gates that the two
      agree within [3] combined standard errors and that the IS
      per-sample variance is at least [50x] smaller (the
      [sample_reduction] figure);
    - {b tune}: solves the minimum-cost buffer-level assignment for a
      population of simulated dies against a clock target chosen from
      the die distribution, recording the feasible/infeasible split,
      the cost distribution, and that every solve was exact (the
      branch-and-bound node cap never bound);
    - {b serving}: forks a real [Serve.run] server, fronts it with the
      fault-injecting {!Chaos} proxy, and answers [yield] and [tune]
      requests through the faulty link with bounded retries; every
      ["ok":true] answer must be bit-identical to the local recompute
      from the same artifact (zero wrong answers), and a deliberately
      infeasible [tune] request must come back as the typed semantic
      code [65] — never a transport failure.

    Writes the machine-readable summary to [BENCH_e18.json] when
    [~out] is given; [make yield-smoke] runs the quick profile and
    fails CI when [ok] is false. *)

type result = {
  gates : int;
  n_paths : int;
  n_vars : int;
  t_cons : float;          (** calibrated: union-bound P(fail) = 1e-4 *)
  is_samples : int;
  is_p_fail : float;       (** unbiased likelihood-ratio estimate *)
  is_std_err : float;
  is_sn_p_fail : float;    (** self-normalized diagnostic *)
  is_ess : float;
  is_hits : int;
  shift_norm : float;
  mc_samples : int;
  mc_p_fail : float;
  mc_std_err : float;
  mc_hits : int;
  agreement_z : float;     (** gate: <= 3 *)
  sample_reduction : float;(** gate: >= 50 *)
  t_clk : float;
  tune_dies : int;
  tune_feasible : int;
  tune_infeasible : int;
  tune_mean_cost : float;  (** over feasible dies *)
  tune_max_cost : float;
  tune_all_exact : bool;
  yield_requests : int;    (** served through the chaos proxy *)
  tune_requests : int;
  wrong_answers : int;     (** must be 0 *)
  request_failures : int;  (** must be 0 *)
  infeasible_code_ok : bool;
      (** the infeasible die answered semantic code 65 *)
  server_exit_ok : bool;
  ok : bool;               (** all gates hold *)
}

val run : ?oc:out_channel -> ?out:string -> Profile.t -> result
(** Prints progress to [oc] (default [stdout]); writes
    [BENCH_e18.json]-style JSON to [out] when given. The [quick]
    profile uses 4e5 MC reference samples; [full] uses 2e6. *)
