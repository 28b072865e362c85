(** E3 — the paper's Figure 2: normalized singular values of A for
    S1423, (a) baseline and (b) with the random-variation sensitivities
    tripled. The faster the spectrum decays, the fewer representative
    paths are needed; boosting the independent random component flattens
    the decay. *)

type series = {
  label : string;
  values : float array;      (** normalized singular values, first [k] *)
  effective_rank : int;      (** at eta = 5% *)
  rank : int;
}

val run : ?oc:out_channel -> Profile.t -> series list
(** Computes and renders an ASCII log-scale plot plus the raw values. *)
