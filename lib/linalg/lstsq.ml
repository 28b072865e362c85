let solve_min_norm a b =
  let f = Svd.factor a in
  Mat.apply (Svd.pinv f) b

(* [Qr.solve_lstsq] raises [Rank_deficient] on an exactly zero diagonal
   of [r], a property of [a] alone: either every column falls back to
   the pseudo-inverse or none does, so it is factored at most once. *)
let solve_mat a b =
  let m, n = Mat.dims a in
  let _, cols = Mat.dims b in
  let by_column solve =
    let xs = Array.init cols (fun j -> solve (Mat.col b j)) in
    Mat.init n cols (fun i j -> xs.(j).(i))
  in
  let min_norm () = by_column (Mat.apply (Svd.pinv (Svd.factor a))) in
  if m < n then min_norm ()
  else
    let f = Qr.factor a in
    try by_column (Qr.solve_lstsq f) with Qr.Rank_deficient _ -> min_norm ()
