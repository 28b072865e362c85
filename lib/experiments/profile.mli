(** Execution profiles for the experiment harness.

    [quick] shrinks the large circuits and caps pool sizes so the whole
    suite regenerates in CI time with the pure-OCaml numerics; [full]
    runs paper-scale (gate counts of the real ISCAS'89 circuits, pools
    up to several thousand paths, 10,000 MC dies). The qualitative
    results — reduction ratios, errors below tolerance, fewer than 100
    hybrid measurements — are profile-stable; see EXPERIMENTS.md. *)

type t = {
  name : string;
  scale_of : Circuit.Benchmarks.preset -> float;
  max_paths : int;
  mc_samples : int;
  yield_samples : int;
  benches : Circuit.Benchmarks.preset list;
}

val quick : t

val full : t
