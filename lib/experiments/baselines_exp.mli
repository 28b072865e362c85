(** E12 — Algorithm 1 vs the related-work baselines, at equal
    measurement budget.

    All methods get the SAME number of measured paths r (the size
    Algorithm 1 chose for eps = 5%), and are scored with the same
    Theorem-2 predictor machinery on the same Monte Carlo dies; plus
    the r = 1 comparison against the representative-critical-path idea
    of the paper's [7]. *)

type row = {
  method_name : string;
  r : int;
  e1_pct : float;
  e2_pct : float;
}

val run : ?oc:out_channel -> Profile.t -> row list
