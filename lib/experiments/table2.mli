(** E2 — the paper's Table 2: hybrid path/segment selection.

    The timing constraint is tightened (scaled by {!t_cons_scale}) to
    enlarge the target pool, exactly mirroring the paper's intent of
    "extracting more critical paths" for Table 2 (the paper adjusts the
    constraint with the same relative yield threshold; on our synthetic
    circuits the pool grows when T shrinks, so the scale is < 1 —
    see EXPERIMENTS.md). eps = 8%; eps' is scanned as in Section 6.2.

    Columns: |G|, |R|, covered gates |G_C| and regions |R_C|, |P_tar|,
    approximate-path |P_r| with its errors, then hybrid |P_r|, |S_r|,
    |P_r| + |S_r| and its errors. *)

type row = {
  bench : string;
  gates : int;
  regions : int;
  covered_gates : int;
  covered_regions : int;
  n_target : int;
  approx_paths : int;
  approx_e1_pct : float;
  approx_e2_pct : float;
  hybrid_paths : int;
  hybrid_segments : int;
  hybrid_total : int;
  hybrid_e1_pct : float;
  hybrid_e2_pct : float;
  seconds : float;
}

val run : ?oc:out_channel -> Profile.t -> row list
