type t = { u : Mat.t; s : Vec.t; v : Mat.t }

type op = {
  rows : int;
  cols : int;
  frob2 : float;
  mul : Mat.t -> Mat.t;
  tmul : Mat.t -> Mat.t;
}

let sum_squares = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0

let op_of_mat a =
  let rows, cols = Mat.dims a in
  { rows; cols; frob2 = sum_squares a.Mat.data; mul = Mat.mul a; tmul = Mat.mul_tn a }

let op_of_sparse a =
  let rows, cols = Sparse.dims a in
  let frob2 = sum_squares a.Sparse.values in
  { rows; cols; frob2; mul = Sparse.mul_mat a; tmul = Sparse.tmul_mat a }

(* Gram-Schmidt orthonormalization of the columns (twice, for numerical
   safety); returns a matrix with orthonormal columns spanning the same
   range. Rank-revealing (drops negligible columns), so it is the
   fallback when the fast Cholesky route below hits rank deficiency. *)
let orthonormalize m =
  let rows, cols = Mat.dims m in
  (* the unit columns kept so far, most recent first *)
  let kept = ref [] in
  for j = 0 to cols - 1 do
    let col = ref (Mat.col m j) in
    for _pass = 1 to 2 do
      List.iter
        (fun qk ->
          let proj = Vec.dot qk !col in
          col := Array.mapi (fun i v -> v -. (proj *. qk.(i))) !col)
        (List.rev !kept)
    done;
    let nrm = Vec.norm2 !col in
    if nrm > 1e-12 then kept := Vec.scale (1.0 /. nrm) !col :: !kept
  done;
  let kept = Array.of_list (List.rev !kept) in
  Mat.init rows (Array.length kept) (fun i j -> kept.(j).(i))

(* One CholQR pass: Q = Y L^{-T} with G = Y^T Y = L L^T. The Gram
   product is row-band parallel ([Mat.mul_tn]) and the triangular solve
   is independent per row, so the pass is bit-identical at any pool
   size. Raises [Cholesky.Not_positive_definite] when the Gram matrix is
   (numerically) rank deficient — including via an explicit pivot-ratio
   guard, because a barely-positive pivot would silently produce a
   garbage basis instead of failing over to Gram-Schmidt. *)
let cholqr_pass y =
  let rows, cols = Mat.dims y in
  let g = Mat.mul_tn y y in
  let l = Cholesky.factor g in
  let dmin = ref infinity and dmax = ref 0.0 in
  for j = 0 to cols - 1 do
    let d = Mat.get l j j in
    if d < !dmin then dmin := d;
    if d > !dmax then dmax := d
  done;
  if cols > 0 && !dmin <= 1e-10 *. !dmax then raise Cholesky.Not_positive_definite;
  let out = Mat.create rows cols in
  let ld = l.Mat.data in
  let band lo hi =
    for i = lo to hi - 1 do
      let base = i * cols in
      for j = 0 to cols - 1 do
        let lj = j * cols in
        let acc = ref y.Mat.data.(base + j) in
        for k = 0 to j - 1 do
          acc := !acc -. (ld.(lj + k) *. out.Mat.data.(base + k))
        done;
        out.Mat.data.(base + j) <- !acc /. ld.(lj + j)
      done
    done
  in
  let grain = max 1 (Mat.par_threshold_value () / max 1 (cols * cols)) in
  Par.Pool.parallel_chunks ~grain 0 rows band;
  out

(* CholQR2: two Cholesky-QR passes cost two tall Gram products instead
   of Gram-Schmidt's column-at-a-time sweeps — the difference between
   minutes and sub-second on a million-row sketch — and the second pass
   restores orthonormality to machine precision for moderately
   conditioned input. Rank-deficient sketches (e.g. a pool whose true
   rank undershoots the sketch width) fall back to the rank-revealing
   Gram-Schmidt. *)
let orthonormalize_fast y =
  let _, cols = Mat.dims y in
  if cols = 0 then y
  else
    match cholqr_pass (cholqr_pass y) with
    | q -> q
    | exception Cholesky.Not_positive_definite -> orthonormalize y

(* Deterministic Gaussian sketch from a splitmix-style hash: drawn
   serially so the factorization is reproducible at any pool size. *)
let gaussian_mat ~seed rows cols =
  let state = ref (Int64.of_int (seed lxor 0x2545F491)) in
  let next_unit () =
    let z = Int64.add !state 0x9E3779B97F4A7C15L in
    state := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    (Int64.to_float (Int64.shift_right_logical z 11) *. 0x1.0p-53 *. 2.0) -. 1.0
  in
  let gaussian () =
    (* sum of 6 uniforms: close enough to Gaussian for a sketch *)
    let acc = ref 0.0 in
    for _ = 1 to 6 do
      acc := !acc +. next_unit ()
    done;
    !acc /. sqrt 2.0
  in
  Mat.init rows cols (fun _ _ -> gaussian ())

let oversample = 8

let power_iters = 2

(* Columns per block under a tail-energy stop; see the interface for
   why 16. *)
let block = 16

type stop = Rank of int | Tail_energy of float

let width m = snd (Mat.dims m)

(* [y] with the span of the orthonormal [q] projected out. *)
let project q y = if width q = 0 then y else Mat.sub y (Mat.mul q (Mat.mul_tn q y))

(* One pass of the range finder: a Gaussian block, power-iterated with
   span [q] projected out of every product with A, so that it only
   chases the range [q] misses. [bt] is A^T q, so (I - q q^T) A x is
   A x - q (bt^T x) at one tall product. The closing orthonormalization
   projects twice ("twice is enough"): a block lying mostly inside span
   [q] still comes out orthogonal to it. *)
let range_block (op : op) ~q ~bt ~seed cols =
  let mul_out x =
    let y = op.mul x in
    if width q = 0 then y else Mat.sub y (Mat.mul q (Mat.mul_tn bt x))
  in
  let y = ref (mul_out (gaussian_mat ~seed op.cols cols)) in
  for _ = 1 to power_iters do
    y := mul_out (orthonormalize_fast (op.tmul (orthonormalize_fast !y)))
  done;
  if width q = 0 then orthonormalize_fast !y
  else orthonormalize_fast (project q (orthonormalize_fast (project q !y)))

let factor_op ~stop ~seed (op : op) =
  if op.rows <= 0 || op.cols <= 0 then invalid_arg "Rsvd.factor_op: empty operator";
  let dim = min op.rows op.cols in
  (* [keep] columns of the final SVD survive; blocks stop once the
     residual energy is at most [target] *)
  let keep, first, target =
    match stop with
    | Rank k ->
      let k = max 1 (min k dim) in
      (k, min dim (k + oversample), infinity)
    | Tail_energy e ->
      if not (e > 0.0) then invalid_arg "Rsvd.factor_op: tail_energy must be positive";
      (dim, min dim block, e *. op.frob2)
  in
  (* Q (rows x width) and B^T = A^T Q (cols x width: tall only in the
     parameter count, never the pool size) grow one block at a time;
     [resid] is the exact energy ||A||_F^2 - ||B||_F^2 outside span Q,
     so the stop needs no estimate. An empty block means the range is
     exhausted. *)
  let rec grow i q bt resid =
    let cols = if i = 0 then first else min block (dim - width q) in
    let qi = range_block op ~q ~bt ~seed:(seed + i) cols in
    let bti = op.tmul qi in
    let e = Mat.frobenius bti in
    let q = Mat.hcat q qi and bt = Mat.hcat bt bti and resid = resid -. (e *. e) in
    if resid > target && width qi > 0 && width q < dim then grow (i + 1) q bt resid else (q, bt)
  in
  let empty tail = ({ u = Mat.create op.rows 0; s = [||]; v = Mat.create op.cols 0 }, tail) in
  if op.frob2 <= 0.0 then empty 0.0
  else begin
    let q, bt = grow 0 (Mat.create op.rows 0) (Mat.create op.cols 0) op.frob2 in
    if width q = 0 then empty 1.0
    else begin
      (* the exact SVD B^T = W S Z^T of the small problem gives
         A ~= (Q Z) S W^T *)
      let small = Svd.factor bt in
      let keep = min keep (Array.length small.Svd.s) in
      let s = Array.sub small.Svd.s 0 keep in
      let u = Mat.mul q (Mat.sub_left_cols small.Svd.v keep) in
      let tail = Float.max 0.0 (op.frob2 -. sum_squares s) /. op.frob2 in
      ({ u; s; v = Mat.sub_left_cols small.Svd.u keep }, tail)
    end
  end

let factor ~rank ~seed a = fst (factor_op ~stop:(Rank rank) ~seed (op_of_mat a))

let to_svd { u; s; v } = { Svd.u; s; v }
