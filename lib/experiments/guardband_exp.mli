(** E4 — Section 6.3 guard-band analysis: the average measured guard
    band e1 stays below the pre-specified tolerance eps, and the
    conservative failure test catches (essentially) all true timing
    failures. *)

type row = {
  bench : string;
  eps_pct : float;          (** pre-specified tolerance *)
  e1_pct : float;           (** measured average guard band *)
  e2_pct : float;
  detection_rate : float;
  miss_rate : float;
  false_alarm_rate : float;
}

val run : ?oc:out_channel -> Profile.t -> row list
(** Three representative circuits at eps = 5% and 8%. *)
