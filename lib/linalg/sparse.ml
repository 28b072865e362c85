type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let dims a = (a.rows, a.cols)

let nnz a = a.row_ptr.(a.rows)

let of_rows cols rows =
  let n = Array.length rows in
  (* merge duplicates and sort each row *)
  let cleaned =
    Array.map
      (fun entries ->
        let tbl = Hashtbl.create (List.length entries) in
        List.iter
          (fun (j, v) ->
            if j < 0 || j >= cols then invalid_arg "Sparse.of_rows: column out of range";
            Hashtbl.replace tbl j (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl j)))
          entries;
        let l = Hashtbl.fold (fun j v acc -> (j, v) :: acc) tbl [] in
        List.sort (fun (j1, _) (j2, _) -> compare j1 j2) l)
      rows
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 cleaned in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun i l ->
      row_ptr.(i) <- !k;
      List.iter
        (fun (j, v) ->
          col_idx.(!k) <- j;
          values.(!k) <- v;
          incr k)
        l)
    cleaned;
  row_ptr.(n) <- !k;
  { rows = n; cols; row_ptr; col_idx; values }

let init_rows ~rows ~cols f =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.init_rows: negative dimension";
  let cap = ref (max 16 rows) in
  let col_idx = ref (Array.make !cap 0) in
  let values = ref (Array.make !cap 0.0) in
  let row_ptr = Array.make (rows + 1) 0 in
  let k = ref 0 in
  let ensure n =
    if n > !cap then begin
      let cap' = ref !cap in
      while n > !cap' do
        cap' := 2 * !cap'
      done;
      let ci = Array.make !cap' 0 and vs = Array.make !cap' 0.0 in
      Array.blit !col_idx 0 ci 0 !k;
      Array.blit !values 0 vs 0 !k;
      col_idx := ci;
      values := vs;
      cap := !cap'
    end
  in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !k;
    let entries =
      List.sort (fun (j1, _) (j2, _) -> compare j1 j2) (f i)
    in
    List.iter
      (fun (j, v) ->
        if j < 0 || j >= cols then invalid_arg "Sparse.init_rows: column out of range";
        if !k > row_ptr.(i) && !col_idx.(!k - 1) = j then
          !values.(!k - 1) <- !values.(!k - 1) +. v
        else begin
          ensure (!k + 1);
          !col_idx.(!k) <- j;
          !values.(!k) <- v;
          incr k
        end)
      entries
  done;
  row_ptr.(rows) <- !k;
  {
    rows;
    cols;
    row_ptr;
    col_idx = Array.sub !col_idx 0 !k;
    values = Array.sub !values 0 !k;
  }

(* Count pass, then fill pass: the CSR arrays are sized exactly and
   filled in row-major order, so columns come out sorted. An entry is
   dropped only when its magnitude is provably <= [tol]; a NaN compares
   false and is kept, as the dense products would propagate it. *)
let of_dense ?(tol = 0.0) m =
  let rows, cols = Mat.dims m in
  let d = m.Mat.data in
  let keep v = not (Float.abs v <= tol) in
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let c = ref 0 in
    for j = 0 to cols - 1 do
      if keep d.((i * cols) + j) then incr c
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let col_idx = Array.make row_ptr.(rows) 0 in
  let values = Array.make row_ptr.(rows) 0.0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = d.((i * cols) + j) in
      if keep v then begin
        col_idx.(!k) <- j;
        values.(!k) <- v;
        incr k
      end
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let to_dense a =
  let m = Mat.create a.rows a.cols in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Mat.set m i a.col_idx.(k) a.values.(k)
    done
  done;
  m

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Sparse.get: index out of range";
  let lo = ref a.row_ptr.(i) and hi = ref (a.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.col_idx.(mid) = j then begin
      result := a.values.(mid);
      lo := !hi + 1
    end
    else if a.col_idx.(mid) < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* the Mat products' PATHSEL_CHECKS contract: flag NaNs the inputs
   did not contain *)
let check_product what x a out =
  if Checks.on () then
    Checks.nan_introduced ~what ~inputs:[ x.Mat.data; a.values ] out.Mat.data

(* dense rows per chunk: one dense row meets every nonzero of [a] once *)
let dense_row_grain a = max 1 (Mat.par_threshold_value () / max 1 (2 * nnz a))

(* Dense x CSR products, bit-identical to the dense kernels they replace
   (Mat.mul_nt, Mat.mul) on finite inputs:
   - each output element still sums its terms in ascending k, starting
     from +0.0;
   - under round-to-nearest a sum is -0.0 only when both addends are
     -0.0, so the accumulator never becomes -0.0, and adding a +-0
     product leaves it unchanged;
   - a skipped product 0 * x differs from +-0 only when x is +-inf or
     NaN. Monte Carlo draws, path sensitivities and predictor weights
     are finite.
   Mat.mul and Mat.mul_tn already skip zero left factors on the same
   reasoning. Both kernels are row-band parallel over the dense
   operand's rows, each output row written by one chunk, so they are
   bit-identical at any pool size.
   mul_dense_nt takes a band's dense rows four at a time: each stored
   entry of [a] is loaded once for four independent accumulators, one
   per dense row, and each still sums that row's terms in ascending k
   from +0.0, so the bits are those of the one-row loop, which the
   band's last (n mod 4) rows take. The blocks are cut inside a band,
   so the chunking cannot move a bit either. *)
let mul_dense_nt x a =
  let n, m = Mat.dims x in
  if m <> a.cols then invalid_arg "Sparse.mul_dense_nt: dimension mismatch";
  let k = a.rows in
  let out = Mat.create n k in
  let xd = x.Mat.data and od = out.Mat.data in
  let row_ptr = a.row_ptr and col_idx = a.col_idx and values = a.values in
  let row i =
    let xbase = i * m in
    let obase = i * k in
    for r = 0 to k - 1 do
      let acc = ref 0.0 in
      for p = Array.unsafe_get row_ptr r to Array.unsafe_get row_ptr (r + 1) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get values p
              *. Array.unsafe_get xd (xbase + Array.unsafe_get col_idx p))
      done;
      Array.unsafe_set od (obase + r) !acc
    done
  in
  (* dense rows i .. i+3 against every row of [a] *)
  let block i =
    let x0 = i * m in
    let x1 = x0 + m in
    let x2 = x1 + m in
    let x3 = x2 + m in
    let o0 = i * k in
    for r = 0 to k - 1 do
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for p = Array.unsafe_get row_ptr r to Array.unsafe_get row_ptr (r + 1) - 1 do
        let v = Array.unsafe_get values p and c = Array.unsafe_get col_idx p in
        s0 := !s0 +. (v *. Array.unsafe_get xd (x0 + c));
        s1 := !s1 +. (v *. Array.unsafe_get xd (x1 + c));
        s2 := !s2 +. (v *. Array.unsafe_get xd (x2 + c));
        s3 := !s3 +. (v *. Array.unsafe_get xd (x3 + c))
      done;
      Array.unsafe_set od (o0 + r) !s0;
      Array.unsafe_set od (o0 + k + r) !s1;
      Array.unsafe_set od (o0 + (2 * k) + r) !s2;
      Array.unsafe_set od (o0 + (3 * k) + r) !s3
    done
  in
  let band lo hi =
    let i = ref lo in
    while !i + 4 <= hi do
      block !i;
      i := !i + 4
    done;
    for i = !i to hi - 1 do
      row i
    done
  in
  Par.Pool.parallel_chunks ~grain:(dense_row_grain a) 0 n band;
  check_product "Sparse.mul_dense_nt" x a out;
  out

let dense_mul w a =
  let n, kk = Mat.dims w in
  if kk <> a.rows then invalid_arg "Sparse.dense_mul: dimension mismatch";
  let m = a.cols in
  let out = Mat.create n m in
  let wd = w.Mat.data and od = out.Mat.data in
  let row_ptr = a.row_ptr and col_idx = a.col_idx and values = a.values in
  (* ikj order: row k of [a] scatters into row i of [out] *)
  let band lo hi =
    for i = lo to hi - 1 do
      let wbase = i * kk in
      let obase = i * m in
      for k = 0 to kk - 1 do
        let wik = Array.unsafe_get wd (wbase + k) in
        if not (Float.equal wik 0.0) then
          for p = Array.unsafe_get row_ptr k to Array.unsafe_get row_ptr (k + 1) - 1 do
            let o = obase + Array.unsafe_get col_idx p in
            Array.unsafe_set od o
              (Array.unsafe_get od o +. (wik *. Array.unsafe_get values p))
          done
      done
    done
  in
  Par.Pool.parallel_chunks ~grain:(dense_row_grain a) 0 n band;
  check_product "Sparse.dense_mul" w a out;
  out

let equal_dense ?(tol = 1e-12) a m =
  let rows, cols = Mat.dims m in
  if rows <> a.rows || cols <> a.cols then false
  else begin
    let ok = ref true in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if Float.abs (get a i j -. Mat.get m i j) > tol then ok := false
      done
    done;
    !ok
  end
