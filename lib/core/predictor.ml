type t = {
  rep : int array;
  rem : int array;
  w : Linalg.Mat.t;          (* (n-r) x r prediction weights *)
  mu_rep : Linalg.Vec.t;
  mu_rem : Linalg.Vec.t;
  gram : Linalg.Mat.t;       (* r x r      = A_r A_r^T *)
  cross : Linalg.Mat.t;      (* r x (n-r)  = A_r A_m^T *)
  sigmas : Linalg.Vec.t;     (* row norms of the error operator *)
}

let complement n idx =
  let mask = Array.make n false in
  Array.iter (fun i -> mask.(i) <- true) idx;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if not mask.(i) then out := i :: !out
  done;
  Array.of_list !out

let build ~a ~mu ~rep =
  let n, _ = Linalg.Mat.dims a in
  if Array.length rep = 0 then invalid_arg "Predictor.build: empty representative set";
  if Array.length mu <> n then invalid_arg "Predictor.build: mu length mismatch";
  Array.iteri
    (fun k i ->
      if i < 0 || i >= n then invalid_arg "Predictor.build: index out of range";
      if k > 0 && rep.(k - 1) >= i then
        invalid_arg "Predictor.build: rep indices must be sorted and distinct")
    rep;
  let rem = complement n rep in
  let a_r = Linalg.Mat.select_rows a rep in
  let a_m = Linalg.Mat.select_rows a rem in
  (* W = A_m A_r^T (A_r A_r^T)^+ ; computed as the transpose of the Gram
     solve (A_r A_r^T) W^T = A_r A_m^T, robust to a singular Gram. The
     two products with A_r run through its CSR form: A is mostly exact
     zeros, and on finite A and W the CSR kernels are bit-identical to
     the dense ones (see Sparse). The Gram stays dense. *)
  let a_r_csr = Linalg.Sparse.of_dense a_r in
  let gram = Linalg.Mat.gram a_r in
  let cross = Linalg.Mat.transpose (Linalg.Sparse.mul_dense_nt a_m a_r_csr) in  (* r x (n-r) *)
  let wt = Linalg.Pinv.solve_gram gram cross in
  let w = Linalg.Mat.transpose wt in
  (* only the row norms of Omega = W A_r - A_m are kept: the
     (n-r) x m operator itself is the largest thing [build] forms *)
  let sigmas =
    Linalg.Mat.row_norms2 (Linalg.Mat.sub (Linalg.Sparse.dense_mul w a_r_csr) a_m)
  in
  if Checks.on () then begin
    Checks.nan_introduced ~what:"Predictor.build (weights)"
      ~inputs:[ a.Linalg.Mat.data ] w.Linalg.Mat.data;
    Checks.nan_introduced ~what:"Predictor.build (error sigmas)"
      ~inputs:[ a.Linalg.Mat.data ] sigmas
  end;
  {
    rep = Array.copy rep;
    rem;
    w;
    mu_rep = Array.map (fun i -> mu.(i)) rep;
    mu_rem = Array.map (fun i -> mu.(i)) rem;
    gram;
    cross;
    sigmas;
  }

let rep_indices t = Array.copy t.rep

let rem_indices t = Array.copy t.rem

let weights t = t.w

let gram t = t.gram

let cross t = t.cross

let mu_rep t = t.mu_rep

let mu_rem t = t.mu_rem

let predict t ~measured =
  if Array.length measured <> Array.length t.rep then
    invalid_arg "Predictor.predict: measurement length mismatch";
  let centered = Linalg.Vec.sub measured t.mu_rep in
  let out = Linalg.Vec.add t.mu_rem (Linalg.Mat.apply t.w centered) in
  if Checks.on () then begin
    Checks.require
      (Array.length out = Array.length t.rem)
      "Predictor.predict: output length <> number of remaining paths";
    Checks.nan_introduced ~what:"Predictor.predict"
      ~inputs:[ measured; t.w.Linalg.Mat.data; t.mu_rep; t.mu_rem ]
      out
  end;
  out

let predict_all t ~measured =
  let _, r = Linalg.Mat.dims measured in
  if r <> Array.length t.rep then
    invalid_arg "Predictor.predict_all: measurement width mismatch";
  let centered = Linalg.Mat.sub_row_vec measured t.mu_rep in
  let pred = Linalg.Mat.mul_nt centered t.w in  (* n_samples x (n-r) *)
  Linalg.Mat.add_row_vec_into pred t.mu_rem;
  if Checks.on () then begin
    Checks.require
      (snd (Linalg.Mat.dims pred) = Array.length t.rem)
      "Predictor.predict_all: output width <> number of remaining paths";
    Checks.nan_introduced ~what:"Predictor.predict_all"
      ~inputs:[ measured.Linalg.Mat.data; t.w.Linalg.Mat.data; t.mu_rep; t.mu_rem ]
      pred.Linalg.Mat.data
  end;
  pred

let error_sigmas t = Array.copy t.sigmas

let worst_case_error t ~kappa =
  if Array.length t.sigmas = 0 then 0.0
  else kappa *. Array.fold_left Float.max 0.0 t.sigmas

let epsilon_r t ~kappa ~t_cons =
  if t_cons <= 0.0 then invalid_arg "Predictor.epsilon_r: t_cons must be positive";
  worst_case_error t ~kappa /. t_cons

let per_path_epsilon t ~kappa ~t_cons =
  if t_cons <= 0.0 then invalid_arg "Predictor.per_path_epsilon: t_cons must be positive";
  Array.map (fun s -> kappa *. s /. t_cons) t.sigmas
