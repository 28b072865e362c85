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
  let s = Sparse.of_dense a in
  {
    rows;
    cols;
    frob2 = sum_squares a.Mat.data;
    mul = (fun xt -> Sparse.mul_dense_nt xt s);
    tmul = (fun yt -> Sparse.dense_mul yt s);
  }

(* Storage. Every tall block the range finder builds (the basis Q,
   each iterate) and every block the operator takes or returns is held
   column-major, as the row-major [Mat.t] of its transpose: an [n x k]
   block is a [k x n] matrix whose row j is column j. The Gram
   products, triangular solves and projections below then run down
   contiguous columns, the operator's outputs are used as they come,
   and only the returned [u] is transposed. B = Q^T A is (A^T Q)^T, so
   [op.tmul] returns its rows directly.

   Bits. Each kernel forms every element from the same products, summed
   in the same order, as the row-major products it replaced, so the
   factorization is bit-identical to them at any pool size:
   - products commute, so [x *. y] and [y *. x] are the same double;
   - every sum runs in ascending index from +0.0, so it never holds
     -0.0 (x + -x is +0.0 under round-to-nearest), and adding a zero
     term of either sign leaves it unchanged;
   - so a product that skips zero factors ([Mat.mul], [Mat.mul_tn]) and
     one that does not ([Mat.mul_nt], [Mat.gram], [mul_q] below) differ
     only when the other factor is infinite or NaN, and the operator's
     outputs are finite. *)

(* The number of columns of a block held column-major. *)
let width m = fst (Mat.dims m)

(* Gram-Schmidt orthonormalization of the columns of [yt] (twice, for
   numerical safety); returns orthonormal columns spanning the same
   range. Rank-revealing (drops negligible columns), so it is the
   fallback when the fast Cholesky route below hits rank deficiency. *)
let orthonormalize yt =
  let cols, rows = Mat.dims yt in
  (* the unit columns kept so far, most recent first *)
  let kept = ref [] in
  for j = 0 to cols - 1 do
    let col = ref (Mat.row yt j) in
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
  match List.rev !kept with [] -> Mat.create 0 rows | kept -> Mat.of_rows kept

(* One CholQR pass: Q = Y L^{-T} with G = Y^T Y = L L^T. The Gram is
   [Mat.gram] of the stored transpose; the triangular solve runs in
   bands of rows, each column an axpy down the band that subtracts
   [L.(j, k) * Q.(i, k)] from [Y.(i, j)] in ascending k, then divides
   by [L.(j, j)] — the row-at-a-time solve's sequence for every
   element. So the pass is bit-identical at any pool size. Raises
   [Cholesky.Not_positive_definite] when the Gram matrix is
   (numerically) rank deficient — including via an explicit
   pivot-ratio guard, because a barely-positive pivot would silently
   produce a garbage basis instead of failing over to Gram-Schmidt. *)
let cholqr_pass yt =
  let cols, rows = Mat.dims yt in
  let l = Cholesky.factor (Mat.gram yt) in
  let dmin = ref infinity and dmax = ref 0.0 in
  for j = 0 to cols - 1 do
    let d = Mat.get l j j in
    if d < !dmin then dmin := d;
    if d > !dmax then dmax := d
  done;
  if cols > 0 && !dmin <= 1e-10 *. !dmax then raise Cholesky.Not_positive_definite;
  let out = Mat.copy yt in
  let od = out.Mat.data and ld = l.Mat.data in
  let band lo hi =
    for j = 0 to cols - 1 do
      let oj = j * rows and lj = j * cols in
      (* four earlier columns per pass over the band: each element still
         takes their four subtractions in ascending k *)
      let k = ref 0 in
      while !k + 4 <= j do
        let k0 = !k in
        let l0 = ld.(lj + k0) and l1 = ld.(lj + k0 + 1) and l2 = ld.(lj + k0 + 2)
        and l3 = ld.(lj + k0 + 3) in
        let o0 = k0 * rows in
        let o1 = o0 + rows in
        let o2 = o1 + rows in
        let o3 = o2 + rows in
        for i = lo to hi - 1 do
          od.(oj + i) <-
            od.(oj + i)
            -. (l0 *. od.(o0 + i))
            -. (l1 *. od.(o1 + i))
            -. (l2 *. od.(o2 + i))
            -. (l3 *. od.(o3 + i))
        done;
        k := k0 + 4
      done;
      for k = !k to j - 1 do
        let lk = ld.(lj + k) and ok = k * rows in
        for i = lo to hi - 1 do
          od.(oj + i) <- od.(oj + i) -. (lk *. od.(ok + i))
        done
      done;
      let d = ld.(lj + j) in
      for i = lo to hi - 1 do
        od.(oj + i) <- od.(oj + i) /. d
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
let orthonormalize_fast yt =
  if width yt = 0 then yt
  else
    match cholqr_pass (cholqr_pass yt) with
    | q -> q
    | exception Cholesky.Not_positive_definite -> orthonormalize yt

(* Deterministic Gaussian sketch from a splitmix-style hash, held
   column-major: draws are taken serially in row-major order, so the
   factorization is reproducible at any pool size. One loop, no
   closure, so the hash state stays unboxed. *)
let gaussian_block ~seed rows cols =
  let m = Mat.create cols rows in
  let d = m.Mat.data in
  let state = ref (Int64.of_int (seed lxor 0x2545F491)) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      (* sum of 6 uniforms: close enough to Gaussian for a sketch *)
      let acc = ref 0.0 in
      for _ = 1 to 6 do
        let z = Int64.add !state 0x9E3779B97F4A7C15L in
        state := z;
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
        let z = Int64.logxor z (Int64.shift_right_logical z 31) in
        acc := !acc +. ((Int64.to_float (Int64.shift_right_logical z 11) *. 0x1.0p-53 *. 2.0) -. 1.0)
      done;
      d.((j * rows) + i) <- !acc /. sqrt 2.0
    done
  done;
  m

let oversample = 8

let power_iters = 2

(* Columns per block under a tail-energy stop; see the interface for
   why 16. *)
let block = 16

type stop = Rank of int | Tail_energy of float

(* [Q C] for a [width q x k] coefficient block [c]: column j is the sum
   over a of [C.(a, j) * Q.(:, a)], axpys down Q's columns in ascending
   a from +0.0. Four columns of Q per pass over a band of rows: each
   element still takes their four terms in order. *)
let mul_q qt c =
  let w, rows = Mat.dims qt in
  let k = snd (Mat.dims c) in
  let out = Mat.create k rows in
  let od = out.Mat.data and qd = qt.Mat.data and cd = c.Mat.data in
  let band lo hi =
    for j = 0 to k - 1 do
      let oj = j * rows in
      let a = ref 0 in
      while !a + 4 <= w do
        let a0 = !a in
        let c0 = cd.((a0 * k) + j) and c1 = cd.(((a0 + 1) * k) + j)
        and c2 = cd.(((a0 + 2) * k) + j) and c3 = cd.(((a0 + 3) * k) + j) in
        let q0 = a0 * rows in
        let q1 = q0 + rows in
        let q2 = q1 + rows in
        let q3 = q2 + rows in
        for i = lo to hi - 1 do
          od.(oj + i) <-
            od.(oj + i)
            +. (c0 *. qd.(q0 + i))
            +. (c1 *. qd.(q1 + i))
            +. (c2 *. qd.(q2 + i))
            +. (c3 *. qd.(q3 + i))
        done;
        a := a0 + 4
      done;
      for a = !a to w - 1 do
        let ca = cd.((a * k) + j) and qa = a * rows in
        for i = lo to hi - 1 do
          od.(oj + i) <- od.(oj + i) +. (ca *. qd.(qa + i))
        done
      done
    done
  in
  let grain = max 1 (Mat.par_threshold_value () / max 1 (w * k)) in
  Par.Pool.parallel_chunks ~grain 0 rows band;
  out

(* [Y - Q C], overwriting the fresh [Q C]. *)
let sub_span qt c yt =
  let p = mul_q qt c in
  Mat.sub_into ~into:p yt p;
  p

(* [y] with the span of the orthonormal [q] projected out, Q^T Y as
   column dots. *)
let project qt yt = if width qt = 0 then yt else sub_span qt (Mat.mul_nt qt yt) yt

(* One pass of the range finder: a Gaussian block, power-iterated with
   span [q] projected out of every product with A, so that it only
   chases the range [q] misses. [b] is B = Q^T A, so (I - Q Q^T) A X is
   A X - Q (B X) at one tall product. The closing orthonormalization
   projects twice ("twice is enough"): a block lying mostly inside span
   [q] still comes out orthogonal to it. Blocks in and out are
   column-major. *)
let range_block (op : op) ~qt ~b ~seed cols =
  let mul_out xt =
    let yt = op.mul xt in
    if width qt = 0 then yt else sub_span qt (Mat.mul_nt b xt) yt
  in
  let y = ref (mul_out (gaussian_block ~seed op.cols cols)) in
  for _ = 1 to power_iters do
    y := mul_out (orthonormalize_fast (op.tmul (orthonormalize_fast !y)))
  done;
  if width qt = 0 then orthonormalize_fast !y
  else orthonormalize_fast (project qt (orthonormalize_fast (project qt !y)))

(* Z and S of the small SVD B^T = W S Z^T; W is never read. For
   w < cols, B is wide and its row-major data is B^T column-major — the
   work array [Svd.factor] builds for B^T — so factoring B forming only
   its left factor yields the same Z and S. A square B would take the
   tall path on B itself, another work array, so it factors B^T as
   before. *)
let small_svd b =
  let w, cols = Mat.dims b in
  if w < cols then
    let f = Svd.factor ~vectors:Left b in
    (f.Svd.s, f.Svd.u)
  else
    let f = Svd.factor (Mat.transpose b) in
    (f.Svd.s, f.Svd.v)

(* ||B_i||_F summed down B_i's columns: the residual's bits, and so
   where the tail-energy stop falls, depend on this order. *)
let frobenius_by_cols m =
  let rows, cols = Mat.dims m in
  let d = m.Mat.data in
  let acc = ref 0.0 in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      let v = d.((i * cols) + j) in
      acc := !acc +. (v *. v)
    done
  done;
  sqrt !acc

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
  (* Q (rows x width, column-major) and B = Q^T A (width x cols: wide
     only in the parameter count, never the pool size) grow one block
     at a time; [resid] is the exact energy ||A||_F^2 - ||B||_F^2
     outside span Q, so the stop needs no estimate. An empty block
     means the range is exhausted. *)
  let rec grow i qt b resid =
    let cols = if i = 0 then first else min block (dim - width qt) in
    let qit = range_block op ~qt ~b ~seed:(seed + i) cols in
    let bi = op.tmul qit in
    let e = frobenius_by_cols bi in
    let qt = Mat.vcat qt qit and b = Mat.vcat b bi in
    let resid = resid -. (e *. e) in
    if resid > target && width qit > 0 && width qt < dim then grow (i + 1) qt b resid
    else (qt, b)
  in
  let no_v = Mat.create op.cols 0 in
  let empty tail = ({ u = Mat.create op.rows 0; s = [||]; v = no_v }, tail) in
  if op.frob2 <= 0.0 then empty 0.0
  else begin
    let qt, b = grow 0 (Mat.create 0 op.rows) (Mat.create 0 op.cols) op.frob2 in
    if width qt = 0 then empty 1.0
    else begin
      (* the exact SVD B^T = W S Z^T of the small problem gives
         A ~= (Q Z) S W^T *)
      let sv, z = small_svd b in
      let keep = min keep (Array.length sv) in
      let s = Array.sub sv 0 keep in
      let u = Mat.transpose (mul_q qt (Mat.sub_left_cols z keep)) in
      let tail = Float.max 0.0 (op.frob2 -. sum_squares s) /. op.frob2 in
      ({ u; s; v = no_v }, tail)
    end
  end

let factor ~rank ~seed a = fst (factor_op ~stop:(Rank rank) ~seed (op_of_mat a))

let to_svd { u; s; v } = { Svd.u; s; v }
