(** Target-path pool: segments, variables, and the linear delay model
    matrices of the paper's Eqns (1)-(2).

    Given the extracted target paths, this module:
    - partitions the path-union subgraph into {b segments} (maximal
      gate chains traversed identically by every path through them);
    - indexes the {b covered} variation variables (regions touching a
      covered gate, per parameter, plus one random variable per covered
      gate);
    - assembles [mu_S], [Sigma] (segments x variables), [G] (paths x
      segments, 0/1 incidence), and [A = G * Sigma] (paths x
      variables), with [mu_Ptar = G * mu_S]. *)

type t

val build : Delay_model.t -> Path_extract.path list -> t
(** Raises [Invalid_argument] on an empty path list. *)

val num_paths : t -> int

val num_segments : t -> int

val num_vars : t -> int

val covered_gates : t -> int
(** |G_C|: gates lying on at least one target path. *)

val covered_regions : t -> int
(** |R_C|: distinct (level, cell) quadtree regions containing at least
    one covered gate (parameter-agnostic count, as in the paper's
    Table 2 where the variable count is |G_C| + 2|R_C|). *)

val path : t -> int -> Path_extract.path

val segment_gates : t -> int -> int array

(* lint: allow-next unused-export: test_timing checks segment sums with it *)
val segments_of_path : t -> int -> int array
(** Segment ids whose concatenation is exactly path [i]'s gate list. *)

val g_mat : t -> Linalg.Mat.t
(** [n x n_S] 0/1 incidence. *)

val sigma_mat : t -> Linalg.Mat.t
(** [n_S x m] segment sensitivities. *)

val a_mat : t -> Linalg.Mat.t
(** [n x m], equal to [G * Sigma]. *)

val mu_paths : t -> Linalg.Vec.t

val mu_segments : t -> Linalg.Vec.t

(* lint: allow-next unused-export: oracle for the rows of A *)
val path_row : t -> int -> Linalg.Vec.t
(** Directly accumulated sensitivity row of path [i] (independent of
    the [G * Sigma] factorization; used to cross-check [A]). *)

val delay_model : t -> Delay_model.t

val var_keys : t -> Variation.var_key array
(** Column order of the variable space: the covered variables in
    ascending {!Variation.slot} order. *)
