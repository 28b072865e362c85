(** E1 — the paper's Table 1: exact vs approximate path selection.

    Per benchmark: tight timing constraint (T_cons = nominal critical
    delay), target paths = yield-loss > 0.01 (1 - Y), eps = 5%.
    Columns: |G|, |R|, |P_tar|, exact |P_r| (= rank A), approximate
    |P_r|, and the MC errors e1, e2. *)

type row = {
  bench : string;
  gates : int;
  regions : int;
  n_target : int;
  n_exact : int;
  n_approx : int;
  e1_pct : float;
  e2_pct : float;
  seconds : float;
}

val run_bench : Profile.t -> Circuit.Benchmarks.preset -> row

val run : ?oc:out_channel -> Profile.t -> row list
(** Runs every benchmark of the profile and prints the table. *)

val print_header : out_channel -> unit

val print_row : out_channel -> row -> unit

val setup_for :
  Profile.t ->
  Circuit.Benchmarks.preset ->
  t_cons_scale:float ->
  max_paths:int ->
  Circuit.Netlist.t * Core.Pipeline.setup
(** Shared benchmark setup (netlist generation + pipeline preparation);
    also used by Table 2 and the other experiments. *)

val preset : string -> Circuit.Benchmarks.preset
(** The built-in preset of that name; [Invalid_input] without one. *)

val setup : Profile.t -> string -> Core.Pipeline.setup
(** {!setup_for} the named preset at [t_cons_scale = 1.0] under the
    profile's path cap: the single-circuit setup most experiments use. *)

val eps : float
(** The paper's Table-1 tolerance: 0.05. *)
