(** First-order (linear) gate-delay model under the variation model.

    Gate [g]'s delay is [d_g = d0_g + sum_i c_{g,i} x_i] with the [x_i]
    independent standard Gaussians. The per-parameter 1-sigma excursion
    contributes [sens * d0] of delay spread, split across the quadtree
    levels by the model's [level_weights]; the lumped per-gate random
    variable is sized so its variance is [random_share] of the gate's
    total delay variance (then scaled by [random_boost]). *)

type t

val build : Circuit.Netlist.t -> Variation.model -> t

val build_with_nominals :
  Circuit.Netlist.t -> Variation.model -> float array -> t
(** Like {!build}, but with externally computed nominal delays (e.g.
    from the NLDM sweep of {!Delay_calc}); the per-gate sensitivities
    scale with the supplied nominal, exactly as in {!build}. Raises
    [Invalid_argument] on a length mismatch or a non-positive delay. *)

val netlist : t -> Circuit.Netlist.t

val model : t -> Variation.model

val nominal : t -> int -> float
(** Nominal delay of gate [g] (includes its fanout load). *)

(** Every gate's sensitivity coefficients, compiled once at build time
    in CSR form over the model's {!Variation.slot} numbering: gate
    [g]'s terms are entries [ptr.(g)] to [ptr.(g + 1) - 1] of [slots]
    and [coefs], in ascending slot order (the [Leff] levels, the [Vt]
    levels, then the gate's random variable when it has one). Every
    consumer sums a gate's terms in that order. The arrays are shared:
    read them, never write. *)
type terms = private {
  ptr : int array;      (** length [num_gates + 1] *)
  slots : int array;    (** each below {!num_slots} *)
  coefs : float array;
}

val terms : t -> terms

val num_slots : t -> int
(** [Variation.num_slots (model t) ~gates:(num_gates)]: the length of a
    dense array indexed by slot. *)

val sigma : t -> int -> float
(** Total delay standard deviation of gate [g]:
    [sqrt (sum_i c_i^2)]. *)

val nominal_critical_delay : t -> float
(** Longest-path delay at nominal corner (the paper's tight timing
    constraint T_cons for Table 1). *)
