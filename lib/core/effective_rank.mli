(** Effective rank of a transformation matrix (Section 4.2, after
    Chua et al.'s network kriging).

    With singular values [s_1 >= s_2 >= ...] and energy
    [E = sum_i s_i], the effective rank at threshold [eta] is the
    smallest [k] such that [sum_{i<=k} s_i >= (1 - eta) * E]. *)

val of_singular_values : eta:float -> Linalg.Vec.t -> int
(** Raises [Invalid_argument] if [eta] is outside (0, 1) or the values
    are negative/unsorted. Returns 0 for an all-zero spectrum. *)

val normalized_spectrum : Linalg.Vec.t -> Linalg.Vec.t
(** [s_i / sum s] — the quantity plotted in the paper's Figure 2. *)
