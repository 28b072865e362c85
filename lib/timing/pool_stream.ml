type t = {
  g : Linalg.Sparse.t;
  sigma : Linalg.Sparse.t;
}

let num_paths t = fst (Linalg.Sparse.dims t.g)

let num_vars t = snd (Linalg.Sparse.dims t.sigma)

let nnz t = Linalg.Sparse.nnz t.g + Linalg.Sparse.nnz t.sigma

let g t = t.g

let sigma t = t.sigma

(* [f j v] for every product term [v = G(i,s) * Sigma(s,j)] of row [i]
   of the implicit A, in CSR order; a column [j] may recur. *)
let row_terms t i f =
  let gm = t.g and sm = t.sigma in
  for kg = gm.Linalg.Sparse.row_ptr.(i) to gm.Linalg.Sparse.row_ptr.(i + 1) - 1 do
    let s = gm.Linalg.Sparse.col_idx.(kg) in
    let gv = gm.Linalg.Sparse.values.(kg) in
    for ks = sm.Linalg.Sparse.row_ptr.(s) to sm.Linalg.Sparse.row_ptr.(s + 1) - 1 do
      f sm.Linalg.Sparse.col_idx.(ks) (gv *. sm.Linalg.Sparse.values.(ks))
    done
  done

(* ||G Sigma||_F^2 one row at a time: the row's terms are scattered into
   a single accumulator of length [vars], then each touched column is
   squared and cleared (a recurring column reads 0 the second time), so
   A is never formed. *)
let frob2 t =
  let acc = Array.make (num_vars t) 0.0 in
  let total = ref 0.0 in
  for i = 0 to num_paths t - 1 do
    row_terms t i (fun j v -> acc.(j) <- acc.(j) +. v);
    row_terms t i (fun j _ ->
        total := !total +. (acc.(j) *. acc.(j));
        acc.(j) <- 0.0)
  done;
  !total

let op t =
  let rows = num_paths t and cols = num_vars t in
  {
    Linalg.Rsvd.rows;
    cols;
    frob2 = frob2 t;
    mul = (fun xt -> Linalg.Sparse.mul_dense_nt (Linalg.Sparse.mul_dense_nt xt t.sigma) t.g);
    tmul = (fun yt -> Linalg.Sparse.dense_mul (Linalg.Sparse.dense_mul yt t.g) t.sigma);
  }

let synthetic ?(seed = 1) ?(decay = 24.0) ~paths ~segments ~vars ~segs_per_path
    ~vars_per_seg () =
  if paths <= 0 || segments <= 0 || vars <= 0 then
    invalid_arg "Pool_stream.synthetic: dimensions must be positive";
  if segs_per_path <= 0 || vars_per_seg <= 0 then
    invalid_arg "Pool_stream.synthetic: sparsity must be positive";
  if decay <= 0.0 then invalid_arg "Pool_stream.synthetic: decay must be positive";
  let rng = Rng.create seed in
  let seg_rng = Rng.split rng in
  let path_rng = Rng.split rng in
  (* Column scales decay exponentially with an e-folding scale of
     [decay] columns — independent of [vars], so growing the variable
     count widens the matrix without flattening its spectrum. This
     reproduces the fast singular-value decay of the paper's Section
     4.2, the regime that licenses sketched selection in the first
     place. *)
  let col_scale j = exp (-.float_of_int j /. decay) in
  (* one draw per segment ahead of Sigma's (the nominal segment delays,
     which the pool does not keep): test_golden pins each seed's pool,
     so Sigma's draws must stay at this stream position *)
  for _ = 1 to segments do
    ignore (Rng.uniform seg_rng 0.5 1.5)
  done;
  let sigma =
    Linalg.Sparse.init_rows ~rows:segments ~cols:vars (fun _ ->
        let k = min vars_per_seg vars in
        let entries = ref [] in
        for _ = 1 to k do
          let j = Rng.int seg_rng vars in
          let c = col_scale j *. (0.02 +. (0.08 *. Float.abs (Rng.gaussian seg_rng))) in
          entries := (j, c) :: !entries
        done;
        !entries)
  in
  let g =
    Linalg.Sparse.init_rows ~rows:paths ~cols:segments (fun _ ->
        let k = min segs_per_path segments in
        let entries = ref [] in
        for _ = 1 to k do
          entries := (Rng.int path_rng segments, 1.0) :: !entries
        done;
        !entries)
  in
  { g; sigma }
