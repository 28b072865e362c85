(** Statistically-critical path extraction (the paper's [11]).

    Extracts every PI-to-PO path whose timing yield
    [P(d_path <= t_cons)] falls below [yield_threshold], by
    branch-and-bound DFS over the timing graph with a statistical upper
    bound for pruning. Paths are identified by their gate sequence
    (delays live on gates), and duplicates reached through different
    input pins are merged. *)

type path = {
  gates : int array;  (** gate ids in source-to-sink order *)
  mu : float;         (** nominal (mean) path delay *)
  sigma : float;      (** path delay standard deviation *)
}

type result = {
  paths : path list;     (** in discovery order *)
  truncated : bool;      (** true when [max_paths] stopped the search *)
  visited_nodes : int;   (** DFS work counter, for diagnostics *)
}

val extract :
  ?max_paths:int ->
  Delay_model.t ->
  t_cons:float ->
  yield_threshold:float ->
  result
(** Raises [Invalid_argument] if [yield_threshold] is outside (0, 1)
    or [t_cons <= 0]. Default [max_paths] is 20_000. *)

(* lint: allow-next unused-export: test_timing checks the yield criterion *)
val path_yield : path -> t_cons:float -> float
(** [P(d_path <= t_cons)]. *)
