(** Row-streamed sparse path pools for million-path selection.

    {!Paths.build} materializes the dense [A = G * Sigma]
    (paths x parameters), which caps pools at a few thousand rows. This
    front-end keeps both factors in CSR ({!Linalg.Sparse}) and exposes
    the pool to the selection engine only as a mat-mul operator
    ({!Linalg.Rsvd.op}), so the randomized sketch can select from
    millions of paths while the densest object ever allocated is a
    [paths x sketch_width] tall block — never [paths x parameters] and
    never [paths x paths].

    The CSR factors are built row-by-row with {!Linalg.Sparse.init_rows}
    (a fold over paths producing (column, value) rows); the
    [pathsel-lint] [no-dense-pool] rule statically bans densification
    calls inside this module. *)

type t

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val of_paths : Delay_model.t -> Path_extract.path list -> t
(** Sparse analogue of {!Paths.build}: same segment partition
    ({!Paths.segment_chains}) and the same sorted variable order, so
    row [i] of the implicit [A] equals row [i] of
    [Paths.a_mat (Paths.build dm paths)]. Raises [Invalid_argument] on
    an empty path list or a non-finite sensitivity (the message names
    the offending segment and gate). *)

val synthetic :
  ?seed:int ->
  ?decay:float ->
  paths:int ->
  segments:int ->
  vars:int ->
  segs_per_path:int ->
  vars_per_seg:int ->
  unit ->
  t
(** Deterministic synthetic pool for scaling experiments: [paths] rows
    each touching [segs_per_path] random segments, segments each
    touching [vars_per_seg] random parameters with exponentially
    decaying column scales (the paper's fast singular-value decay).
    [decay] is the spectrum's e-folding scale in columns (default 24,
    independent of [vars] — an effective rank of a few dozen, like the
    real pools of Section 4.2). Memory is O(nnz), so a 1,000,000-path
    pool is a few hundred MB of CSR, not a dense matrix. *)

val op : t -> Linalg.Rsvd.op
(** The pool as a linear operator: [mul x = G (Sigma x)] and
    [tmul y = Sigma^T (G^T y)], both CSR kernels — [A] itself is never
    formed. [frob2] is summed one row of [G] at a time through a single
    length-[vars] accumulator. *)

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val num_paths : t -> int

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val num_segments : t -> int

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val num_vars : t -> int

val nnz : t -> int
(** Stored entries across both CSR factors. *)

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val g : t -> Linalg.Sparse.t
(** [paths x segments] incidence. *)

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val sigma : t -> Linalg.Sparse.t
(** [segments x parameters] sensitivities. *)

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val mu : t -> Linalg.Vec.t
(** Nominal path delays, [G * mu_segments]. *)

(* lint: allow-next unused-export: tests compare the stream with Paths.build *)
val rows_dense : t -> int array -> Linalg.Mat.t
(** [rows_dense t idx] densifies only the selected rows of the implicit
    [A] ([|idx| x parameters]) — the piece a representative-set
    predictor needs. Raises [Invalid_argument] on out-of-range rows. *)
