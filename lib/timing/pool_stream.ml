type t = {
  g : Linalg.Sparse.t;
  sigma : Linalg.Sparse.t;
  mu_paths : Linalg.Vec.t;
}

let num_paths t = fst (Linalg.Sparse.dims t.g)

let num_segments t = fst (Linalg.Sparse.dims t.sigma)

let num_vars t = snd (Linalg.Sparse.dims t.sigma)

let nnz t = Linalg.Sparse.nnz t.g + Linalg.Sparse.nnz t.sigma

let g t = t.g

let sigma t = t.sigma

let mu t = t.mu_paths

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
    mul = (fun x -> Linalg.Sparse.mul_mat t.g (Linalg.Sparse.mul_mat t.sigma x));
    tmul = (fun y -> Linalg.Sparse.tmul_mat t.sigma (Linalg.Sparse.tmul_mat t.g y));
  }

let of_paths dm path_list =
  if path_list = [] then invalid_arg "Pool_stream.of_paths: empty path list";
  let paths = Array.of_list path_list in
  let segments, seg_of_path = Paths.segment_chains paths in
  let n = Array.length paths in
  let n_s = Array.length segments in
  (* variable space over covered gates, in the same sorted order as
     [Paths.build] so the two front-ends agree column-for-column *)
  let covered = Hashtbl.create 1024 in
  Array.iter (fun s -> Array.iter (fun gt -> Hashtbl.replace covered gt ()) s) segments;
  let var_set = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun gt () ->
      List.iter (fun (k, _) -> Hashtbl.replace var_set k ()) (Delay_model.sensitivities dm gt))
    covered;
  let vars = Array.of_seq (Hashtbl.to_seq_keys var_set) in
  Array.sort Variation.compare_var vars;
  let m = Array.length vars in
  let var_index = Hashtbl.create m in
  Array.iteri (fun i k -> Hashtbl.replace var_index k i) vars;
  let mu_segments = Array.make n_s 0.0 in
  let sigma =
    Linalg.Sparse.init_rows ~rows:n_s ~cols:m (fun s ->
        let gates = segments.(s) in
        let entries = ref [] in
        Array.iter
          (fun gt ->
            mu_segments.(s) <- mu_segments.(s) +. Delay_model.nominal dm gt;
            List.iter
              (fun (k, c) ->
                if not (Float.is_finite c) then
                  invalid_arg
                    (Printf.sprintf
                       "Pool_stream.of_paths: non-finite sensitivity %g at segment %d, gate %d"
                       c s gt);
                entries := (Hashtbl.find var_index k, c) :: !entries)
              (Delay_model.sensitivities dm gt))
          gates;
        !entries)
  in
  let g =
    Linalg.Sparse.init_rows ~rows:n ~cols:n_s (fun i ->
        Array.fold_left (fun acc s -> (s, 1.0) :: acc) [] seg_of_path.(i))
  in
  let mu_paths = Linalg.Sparse.mul_vec g mu_segments in
  { g; sigma; mu_paths }

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
  let mu_segments =
    Array.init segments (fun _ -> Rng.uniform seg_rng 0.5 1.5)
  in
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
  let mu_paths = Linalg.Sparse.mul_vec g mu_segments in
  { g; sigma; mu_paths }

let rows_dense t idx =
  let m = num_vars t in
  let out = Linalg.Mat.create (Array.length idx) m in
  Array.iteri
    (fun r i ->
      if i < 0 || i >= num_paths t then invalid_arg "Pool_stream.rows_dense: row out of range";
      let base = r * m in
      row_terms t i (fun j v ->
          out.Linalg.Mat.data.(base + j) <- out.Linalg.Mat.data.(base + j) +. v))
    idx;
  out
