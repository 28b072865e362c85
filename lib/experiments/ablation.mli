(** E5/E6 — ablations on design choices called out in DESIGN.md.

    E5: Algorithm 1's search schedule. The paper decrements r linearly;
    we default to bisection. Both must land on (nearly) the same |P_r|;
    bisection does logarithmically many predictor builds.

    E6: the effective-rank energy threshold eta. Sweeping eta shows how
    the a-priori dimension estimate tracks the a-posteriori selected
    |P_r| at eps = 5%. *)

type schedule_row = {
  bench : string;
  linear_r : int;
  linear_evals : int;
  linear_seconds : float;
  bisect_r : int;
  bisect_evals : int;
  bisect_seconds : float;
}

type eta_row = {
  eta_pct : float;
  effective_rank : int;
}

(* lint: allow-next unused-export: [run] runs it; test_experiments drives it small *)
val run_schedule : ?oc:out_channel -> Profile.t -> schedule_row list
(** E5, on the three smallest benchmarks. *)

(* lint: allow-next unused-export: [run] runs it; test_experiments drives it small *)
val run_eta : ?oc:out_channel -> Profile.t -> eta_row list
(** E6, on s1423: eta in {1, 2, 5, 10}%. *)

val run : ?oc:out_channel -> Profile.t -> unit
