(** The paper's evaluation circuits.

    Ten ISCAS'89-style benchmarks with the gate counts, logic depths,
    and spatial-correlation configurations of the paper's Tables 1 and 2
    (3-level model, 21 regions, for the small circuits; 5-level model,
    341 regions, for the large ones). The netlists are synthetic
    structural analogues; see DESIGN.md, "Substitutions".

    [scale] shrinks a preset for fast runs: gate/IO counts are
    multiplied by [scale] (depth is preserved). [scale = 1.0] is
    paper-scale. *)

type preset = {
  bench_name : string;
  gate_count : int;     (** |G| at scale 1.0 *)
  depth : int;
  inputs : int;
  outputs : int;
  region_levels : int;  (** 3 => 21 regions, 5 => 341 regions *)
}

val all : preset list
(** The paper's evaluation suite, in the tables' order: s1196 ... s38417. *)

val find : string -> preset option
(** Case-insensitive lookup by name, over the full ISCAS'89 family
    (s27 ... s38584, sizes from the published gate counts), which
    includes {!all}. *)

val netlist : ?scale:float -> preset -> Netlist.t
(** Deterministic netlist for the preset (seeded by the preset name).
    Raises [Invalid_argument] if [scale] is not in (0, 1]. *)

val region_count : preset -> int
(** Total regions |R| of the hierarchical model: sum of 4^k for
    k < region_levels. *)
