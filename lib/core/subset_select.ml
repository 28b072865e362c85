let rows_from_svd (svd : Linalg.Svd.t) ~r =
  let n, k = Linalg.Mat.dims svd.u in
  if r < 1 || r > n then invalid_arg "Subset_select.rows_from_svd: r out of range";
  let r_eff = min r k in
  let u_r = Linalg.Mat.sub_left_cols svd.u r_eff in  (* n x r_eff *)
  let f = Linalg.Qr.factor_pivoted (Linalg.Mat.transpose u_r) in
  let perm = Linalg.Qr.perm f in
  (* When r exceeds the number of U columns (rank-deficient corner), pad
     with the remaining pivots; otherwise take the first r. *)
  let chosen = Array.sub perm 0 r in
  Array.sort compare chosen;
  chosen

let nested_rows (svd : Linalg.Svd.t) =
  let n, k = Linalg.Mat.dims svd.u in
  let r = max 1 (min n k) in
  (* weight the left singular vectors by their singular values so early
     pivots favour the dominant directions — that makes the SMALL
     prefixes good selections, which is what Algorithm 1 consumes *)
  let w =
    Linalg.Mat.init n r (fun i j -> Linalg.Mat.get svd.u i j *. svd.s.(j))
  in
  let f = Linalg.Qr.factor_pivoted (Linalg.Mat.transpose w) in
  Linalg.Qr.perm f
