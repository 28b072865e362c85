(** The process-variation model of the paper (Section 2 / Section 6).

    Independent standard-Gaussian variables come in two flavours:

    - {b Correlated} variables from the hierarchical spatial-correlation
      model of Blaauw et al.: a quadtree over the unit die with
      [levels] levels. Level 0 is the whole die (the die-to-die
      component); level [k] splits the die into [4^k] rectangles. Each
      parameter (effective channel length [Leff], threshold voltage
      [Vt]) gets one variable per region, and a gate's correlated
      variation is the sum of the variables of the regions containing
      it, weighted by [level_weights].

    - {b Random} variables: one lumped variable per gate, sized to a
      fixed [random_share] of the gate's total delay variance (6% in
      the paper), optionally scaled by [random_boost] (Figure 2(b)
      uses 3x). *)

type param = Leff | Vt

(** An abstract independent N(0,1) variable of the model. *)
type var_key =
  | Region of { param : param; level : int; cell : int }
  | Gate_random of int  (** netlist gate id *)

type model = {
  levels : int;                (** quadtree levels; 3 => 21 regions, 5 => 341 *)
  level_weights : float array; (** variance share per level; length [levels],
                                   non-negative, sums to 1 *)
  random_share : float;        (** fraction of total delay variance that is
                                   gate-local random; in [0, 1) *)
  random_boost : float;        (** multiplier on random sensitivities *)
}

val make_model :
  ?level_weights:float array ->
  ?random_share:float ->
  ?random_boost:float ->
  levels:int ->
  unit ->
  model
(** Validates and normalizes. Default weights put 40% of the correlated
    variance on the die-to-die level and split the rest evenly across
    the finer levels. Defaults: [random_share = 0.06],
    [random_boost = 1.0]. *)

val region_count : model -> int
(** Total regions |R| across all levels: sum of [4^k]. *)

val cell_of_position : level:int -> float -> float -> int
(** Index of the level-[level] quadtree cell containing the die
    position [(x, y)], both in [0, 1]. *)

(** {2 Slot numbering}

    Every variable of a model over a netlist of [gates] gates has one
    integer {e slot} in [\[0, num_slots m ~gates)]:
    - [Leff] regions first, level by level and cell by cell: region
      [(level, cell)] sits at [(4^level - 1) / 3 + cell], after the
      cells of every coarser level;
    - then the [Vt] regions in the same layout, offset by
      [region_count m];
    - then one slot per gate: [Gate_random g] is
      [2 * region_count m + g].

    So ascending slots sort the regions by parameter ([Leff] first),
    level and cell, and put the gate variables after them by gate id.
    {!Delay_model} compiles every gate's sensitivities to slots once,
    so path extraction, the pool build, Monte Carlo, SSTA and
    criticality index plain arrays instead of hashing keys. *)

val num_slots : model -> gates:int -> int
(** [2 * region_count m + gates]. *)

val slot : model -> var_key -> int
(** The key's slot. Raises [Invalid_argument] on a region outside the
    model's quadtree or a negative gate id. *)

val key_of_slot : model -> int -> var_key
(** The inverse of {!slot}. Raises [Invalid_argument] on a negative
    slot. *)

val var_name : var_key -> string
