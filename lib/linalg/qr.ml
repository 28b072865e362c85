exception Rank_deficient of string

(* Householder QR on flat column-major storage: element (i, j) of the
   [m] x [n] work array lives at [qr.(i + j*m)], so every reflector
   walks a contiguous column. The reflectors are stored below the
   diagonal of [qr] (the leading 1 of each reflector is implicit) and
   the scalar factors in [tau]: H_k = I - tau_k v_k v_k^T. *)
type t = {
  qr : float array;
  tau : float array;
  jpvt : int array;  (* pivoted position -> original column *)
  m : int;
  n : int;
}

let house_column a m k =
  (* Build the reflector annihilating column [k] below row [k]; returns
     tau and writes v (normalized, v.(k)=1 implicit) into rows k+1.. of
     the column, with the resulting R entry at (k, k). *)
  let c = k * m in
  let alpha = a.(c + k) in
  let xnorm2 = ref 0.0 in
  for i = c + k + 1 to c + m - 1 do
    let v = a.(i) in
    xnorm2 := !xnorm2 +. (v *. v)
  done;
  if Float.equal !xnorm2 0.0 then 0.0
  else begin
    let norm = sqrt ((alpha *. alpha) +. !xnorm2) in
    let beta = if alpha >= 0.0 then -.norm else norm in
    let tau = (beta -. alpha) /. beta in
    let scale = 1.0 /. (alpha -. beta) in
    for i = c + k + 1 to c + m - 1 do
      a.(i) <- a.(i) *. scale
    done;
    a.(c + k) <- beta;
    tau
  end

(* Apply H_k = I - tau v v^T, v stored in column [vc] (leading
   dimension [m]) below row [k], to the [cols] columns of [x] (leading
   dimension [m]) from column [jstart] on. *)
let apply_reflector ~v ~vc x m cols k tau jstart =
  if not (Float.equal tau 0.0) then begin
    let ck = vc * m in
    for j = jstart to cols - 1 do
      let cj = j * m in
      let s = ref x.(cj + k) in
      for i = k + 1 to m - 1 do
        s := !s +. (v.(ck + i) *. x.(cj + i))
      done;
      let s = tau *. !s in
      x.(cj + k) <- x.(cj + k) -. s;
      for i = k + 1 to m - 1 do
        x.(cj + i) <- x.(cj + i) -. (s *. v.(ck + i))
      done
    done
  end

(* Squared norm of rows [k..m-1] of column [j]. *)
let col_norm2 a m k j =
  let acc = ref 0.0 in
  for i = (j * m) + k to (j * m) + m - 1 do
    let v = a.(i) in
    acc := !acc +. (v *. v)
  done;
  !acc

let factor_generic ~pivot a0 =
  let m, n = Mat.dims a0 in
  (* the row-major transpose's data is [a0] in column-major order *)
  let a = (Mat.transpose a0).Mat.data in
  let kmax = min m n in
  let tau = Array.make kmax 0.0 in
  let jpvt = Array.init n (fun j -> j) in
  (* running squared residual norms of each column, for pivoting *)
  let cnorm = if pivot then Array.init n (col_norm2 a m 0) else [||] in
  for k = 0 to kmax - 1 do
    if pivot then begin
      let best = ref k in
      for j = k + 1 to n - 1 do
        if cnorm.(j) > cnorm.(!best) then best := j
      done;
      (* Guard against stale downdated norms: recompute the winner. *)
      let exact = col_norm2 a m k !best in
      if exact < 0.5 *. cnorm.(!best) then begin
        (* norms drifted; refresh all remaining and re-select *)
        for j = k to n - 1 do
          cnorm.(j) <- col_norm2 a m k j
        done;
        best := k;
        for j = k + 1 to n - 1 do
          if cnorm.(j) > cnorm.(!best) then best := j
        done
      end
      else cnorm.(!best) <- exact;
      if !best <> k then begin
        let ck = k * m and cb = !best * m in
        for i = 0 to m - 1 do
          let t = a.(ck + i) in
          a.(ck + i) <- a.(cb + i);
          a.(cb + i) <- t
        done;
        let t = cnorm.(k) in
        cnorm.(k) <- cnorm.(!best);
        cnorm.(!best) <- t;
        let t = jpvt.(k) in
        jpvt.(k) <- jpvt.(!best);
        jpvt.(!best) <- t
      end
    end;
    let t = house_column a m k in
    tau.(k) <- t;
    apply_reflector ~v:a ~vc:k a m n k t (k + 1);
    if pivot then
      (* downdate the residual norms of the remaining columns *)
      for j = k + 1 to n - 1 do
        let v = a.(k + (j * m)) in
        cnorm.(j) <- Float.max 0.0 (cnorm.(j) -. (v *. v))
      done
  done;
  { qr = a; tau; jpvt; m; n }

let factor a = factor_generic ~pivot:false a

let factor_pivoted a = factor_generic ~pivot:true a

let r f =
  let k = min f.m f.n in
  Mat.init k f.n (fun i j -> if j >= i then f.qr.(i + (j * f.m)) else 0.0)

let perm f = Array.copy f.jpvt

let q f =
  let k = min f.m f.n in
  (* Accumulate the thin Q by applying the reflectors to I backwards. *)
  let qm = Array.make (f.m * k) 0.0 in
  for j = 0 to k - 1 do
    qm.(j + (j * f.m)) <- 1.0
  done;
  for kk = k - 1 downto 0 do
    apply_reflector ~v:f.qr ~vc:kk qm f.m k kk f.tau.(kk) 0
  done;
  Mat.init f.m k (fun i j -> qm.(i + (j * f.m)))

let apply_qt f b =
  if Array.length b <> f.m then invalid_arg "Qr.apply_qt: dimension mismatch";
  let y = Array.copy b in
  for kk = 0 to min f.m f.n - 1 do
    apply_reflector ~v:f.qr ~vc:kk y f.m 1 kk f.tau.(kk) 0
  done;
  y

let solve_lstsq f b =
  if f.m < f.n then invalid_arg "Qr.solve_lstsq: underdetermined system";
  let y = apply_qt f b in
  let x = Array.make f.n 0.0 in
  for i = f.n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to f.n - 1 do
      acc := !acc -. (f.qr.(i + (j * f.m)) *. x.(j))
    done;
    let d = f.qr.(i + (i * f.m)) in
    if Float.equal d 0.0 then raise (Rank_deficient "Qr.solve_lstsq: rank-deficient matrix");
    x.(i) <- !acc /. d
  done;
  (* undo the column permutation *)
  let xp = Array.make f.n 0.0 in
  for j = 0 to f.n - 1 do
    xp.(f.jpvt.(j)) <- x.(j)
  done;
  xp
