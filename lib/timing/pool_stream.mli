(** Row-streamed sparse path pools for million-path selection.

    {!Paths.build}, the pool every circuit flow selects from,
    materializes the dense [A = G * Sigma] (paths x parameters), which
    caps pools at a few thousand rows. This module builds deterministic
    synthetic pools of the same shape with both factors kept in CSR
    ({!Linalg.Sparse}) and exposes them to the selection engine only as
    a mat-mul operator ({!Linalg.Rsvd.op}), so the randomized sketch can
    select from millions of paths while the densest object ever
    allocated is a [paths x sketch_width] tall block — never
    [paths x parameters] and never [paths x paths].

    The CSR factors are built row-by-row with {!Linalg.Sparse.init_rows}
    (a fold over paths producing (column, value) rows); the
    [pathsel-lint] [no-dense-pool] rule statically bans densification
    calls inside this module. *)

type t

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
(** The pool as a linear operator on column-major blocks: [mul xt]
    is [(xt Sigma^T) G^T = (G (Sigma X))^T] and [tmul yt] is
    [(yt G) Sigma = (Sigma^T (G^T Y))^T], two dense-by-CSR products
    each ({!Linalg.Sparse.mul_dense_nt}, {!Linalg.Sparse.dense_mul}) —
    [A] itself is never formed. [frob2] is summed one row of [G] at a
    time through a single length-[vars] accumulator. *)

val nnz : t -> int
(** Stored entries across both CSR factors. *)

(* lint: allow-next unused-export: test_sparse_rsvd checks [op] against its dense product *)
val g : t -> Linalg.Sparse.t
(** [paths x segments] incidence. *)

(* lint: allow-next unused-export: test_sparse_rsvd checks [op] against its dense product *)
val sigma : t -> Linalg.Sparse.t
(** [segments x parameters] sensitivities. *)
