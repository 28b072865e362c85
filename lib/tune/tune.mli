(** Per-die tunable-buffer configuration (EffiTest-style).

    Post-silicon, a die's predicted per-path delays can be pulled back
    under the clock by programming tunable buffers: each buffer sits on
    a known set of paths and offers a small discrete set of delay
    offsets, each with a cost (power, area, stress — any additive
    scalar). Setting buffer [b] to level [l] adds
    [levels.(l).offset_ps] to every path in [paths] — negative offsets
    speed paths up. The problem: pick one level per buffer so that
    every adjusted delay meets [t_clk], at minimum total cost.

    The solver is exact branch-and-bound over the discrete levels with
    admissible per-path and cost bounds, seeded with the all-minimum-
    offset assignment (which is feasible iff the instance is — offsets
    are additive and independent across buffers, so the per-buffer
    minimum is simultaneously best for every path). Instances that blow
    past the node budget fall back to the best incumbent found and mark
    the result inexact. *)

type level = {
  offset_ps : float;  (** delay added to every covered path (ps);
                          negative speeds paths up *)
  cost : float;       (** additive cost of selecting this level *)
}

type buffer = {
  paths : int array;      (** indices of the paths this buffer drives *)
  levels : level array;   (** candidate settings, at least one *)
}

type instance = {
  delays : float array;   (** predicted per-path delays (ps) *)
  t_clk : float;          (** clock target every path must meet (ps) *)
  buffers : buffer array;
}

type assignment = {
  levels : int array;  (** chosen level index per buffer *)
  cost : float;        (** total cost of the assignment *)
  slack_ps : float;    (** worst-path slack at the assignment, >= 0 *)
  exact : bool;        (** false iff the node budget was exhausted and
                           this is the best incumbent, not proven
                           optimal *)
}

type infeasible = {
  path : int;          (** the path with the largest deficit *)
  deficit_ps : float;  (** how far that path misses [t_clk] even with
                           every buffer at its minimum offset *)
}

type result = Feasible of assignment | Infeasible of infeasible

val solve : ?max_nodes:int -> instance -> result
(** Minimum-cost level assignment meeting [t_clk] on every path, or
    [Infeasible] naming the worst path and its deficit when even the
    all-minimum-offset configuration misses timing (that check is
    complete: offsets are additive, so per-buffer minima dominate).
    [max_nodes] (default 200_000) bounds the branch-and-bound search;
    on exhaustion the best feasible incumbent is returned with
    [exact = false] (the knob lets a test reach that cap). Raises
    [Invalid_argument] on malformed input: non-finite delays, offsets,
    costs or [t_clk]; negative costs; empty level sets; path indices
    out of range. *)

(* lint: allow-next unused-export: oracle for [solve]'s optimum *)
val exhaustive : instance -> result
(** Reference solver: full enumeration of the level product space.
    Raises [Invalid_argument] when the product exceeds [1_000_000]
    assignments. Same feasibility predicate and cost accumulation
    order as {!solve}, so optimal costs agree exactly on instances
    both can handle. *)
