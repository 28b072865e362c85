(** Dense row-major matrices of floats.

    The storage is a single flat [float array] of length [rows * cols];
    element [(i, j)] lives at index [i * cols + j]. All dimensions are
    checked; mismatches raise [Invalid_argument]. *)

type t = private {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create m n] is the [m]x[n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** Rows must all have the same length; an empty outer array is the 0x0
    matrix. *)

val to_arrays : t -> float array array

val of_rows : Vec.t list -> t

(* lint: allow-next unused-export: test helper for inputs and orthonormality checks *)
val identity : int -> t

(* lint: allow-next unused-export: test helper: rebuilds sketched factors *)
val diag_of_vec : Vec.t -> t

(* lint: allow-next unused-export: test helper: reads the pivoted QR diagonal *)
val diag : t -> Vec.t
(** Main diagonal, of length [min rows cols]. *)

val copy : t -> t

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val col : t -> int -> Vec.t

val set_row : t -> int -> Vec.t -> unit

val transpose : t -> t

(* lint: allow-next unused-export: test helper for expected answers and NaN inputs *)
val map : (float -> float) -> t -> t

(* lint: allow-next unused-export: test helper: fused-kernel oracles in test_par *)
val add : t -> t -> t

val sub : t -> t -> t

(* lint: allow-next unused-export: test helper: fused-kernel oracles in test_par *)
val scale : float -> t -> t

val sub_into : into:t -> t -> t -> unit
(** [sub_into ~into a b] writes [a - b] into [into] without allocating.
    [into] may alias [a] or [b]. *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] performs [y <- y + alpha * x] in place. *)

val sub_scaled : t -> float -> t -> t
(** [sub_scaled a s b] is [a - s*b] in one pass, allocating only the
    result (the fused form of [sub a (scale s b)], bit-identical to
    it). *)

val add_row_vec_into : t -> Vec.t -> unit
(** [add_row_vec_into m v] adds [v] to every row of [m] in place. *)

val sub_row_vec : t -> Vec.t -> t
(** [sub_row_vec m v] subtracts [v] from every row (fresh matrix). *)

val mul : t -> t -> t
(** Matrix product; cache-blocked ikj order, row-band parallel on the
    {!Par.Pool} when the flop count clears {!par_threshold_value}.
    Bit-identical to the serial kernel at any pool size. *)

val mul_nt : t -> t -> t
(** [mul_nt a b] is [a * transpose b] without materializing the
    transpose. Register-tiled dot products, row-band parallel. *)

val mul_tn : t -> t -> t
(** [mul_tn a b] is [transpose a * b]. Row-band parallel. *)

val gram : t -> t
(** [gram a] is [a * transpose a] (symmetric, computed in half the flops,
    row-band parallel). Four dot products share each pass over a row;
    every element is summed in ascending k from 0.0, so the bits are
    those of a lone dot product. *)

val set_par_threshold : int -> unit
(** Flop count below which the dense products stay serial (default
    200_000). Lowering it forces the parallel path on small matrices —
    useful for tests; the answers are bit-identical either way. *)

val par_threshold_value : unit -> int

val apply : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

(* lint: allow-next unused-export: oracle for [Sparse] adjoints and residual checks *)
val apply_t : t -> Vec.t -> Vec.t
(** [apply_t a x] is [transpose a * x]. *)

val select_rows : t -> int array -> t
(** [select_rows a idx] stacks rows [idx.(0); idx.(1); ...] of [a]. *)

val select_cols : t -> int array -> t

val sub_left_cols : t -> int -> t
(** [sub_left_cols a k] is the [rows]x[k] block of the first [k] columns. *)

val vcat : t -> t -> t

val row_norms2 : t -> Vec.t
(** Euclidean norm of every row. *)

val frobenius : t -> float

(* lint: allow-next unused-export: test helper: reports matrix differences *)
val norm_inf : t -> float
(** Max absolute entry. *)

(* lint: allow-next unused-export: test helper: compares kernel outputs *)
val equal : ?tol:float -> t -> t -> bool

val bits_equal : t -> t -> bool
(** Same shape and the same IEEE bits in every entry: [-0.0] differs
    from [0.0], and a NaN equals only a NaN with the same payload. The
    check for answers that travel through [%.17g] JSON, which round-trips
    doubles exactly. *)
