type t = { u : Mat.t; s : Vec.t; v : Mat.t }

type vectors = Both | Left | Values

exception No_convergence

let hypot2 a b = Float.hypot a b

let sign_of x y = if y >= 0.0 then Float.abs x else -.Float.abs x

(* Rotate columns [p] and [q] (each [len] long, column-major, leading
   dimension [len]) of [x] by the plane rotation (c, s). *)
let rotate x len p q c s =
  let cp = p * len and cq = q * len in
  for r = 0 to len - 1 do
    let y = x.(cp + r) in
    let z = x.(cq + r) in
    x.(cp + r) <- (y *. c) +. (z *. s);
    x.(cq + r) <- (z *. c) -. (y *. s)
  done

(* [x.(yo + r) <- x.(yo + r) +. f *. x.(xo + r)] for r in [lo, hi). *)
let axpy f x ~xo ~yo lo hi =
  for r = lo to hi - 1 do
    x.(yo + r) <- x.(yo + r) +. (f *. x.(xo + r))
  done

(* [dots.(j) <- sum over r in [lo, m) of p.(po + r) *. x.(j*m + r)] for
   every column j in [jlo, n) of the column-major [x], each sum formed
   in increasing r from 0.0 as a plain loop forms it. Four columns
   share one pass over [p], so their independent sums overlap instead
   of waiting on one add chain. *)
let column_dots ~p ~po x m lo jlo n dots =
  let j = ref jlo in
  while !j + 4 <= n do
    let c0 = !j * m in
    let c1 = c0 + m in
    let c2 = c1 + m in
    let c3 = c2 + m in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for r = lo to m - 1 do
      let pr = p.(po + r) in
      s0 := !s0 +. (pr *. x.(c0 + r));
      s1 := !s1 +. (pr *. x.(c1 + r));
      s2 := !s2 +. (pr *. x.(c2 + r));
      s3 := !s3 +. (pr *. x.(c3 + r))
    done;
    dots.(!j) <- !s0;
    dots.(!j + 1) <- !s1;
    dots.(!j + 2) <- !s2;
    dots.(!j + 3) <- !s3;
    j := !j + 4
  done;
  for j = !j to n - 1 do
    let cj = j * m in
    let s = ref 0.0 in
    for r = lo to m - 1 do
      s := !s +. (p.(po + r) *. x.(cj + r))
    done;
    dots.(j) <- !s
  done

(* [acc.(r) <- sum over k in [lo, n) of x.(r + k*m) *. x.(i + k*m)] for
   every row r in [lo, m) of the column-major [x], each sum formed in
   increasing k from 0.0 as a plain loop forms it. Each pass over the
   rows adds four columns, in order, so [acc] is loaded and stored a
   quarter as often. *)
let row_dots x m i lo n acc =
  Array.fill acc lo (m - lo) 0.0;
  let k = ref lo in
  while !k + 4 <= n do
    let c0 = !k * m in
    let c1 = c0 + m in
    let c2 = c1 + m in
    let c3 = c2 + m in
    let x0 = x.(i + c0) and x1 = x.(i + c1) and x2 = x.(i + c2) and x3 = x.(i + c3) in
    for r = lo to m - 1 do
      acc.(r) <-
        acc.(r)
        +. (x.(c0 + r) *. x0)
        +. (x.(c1 + r) *. x1)
        +. (x.(c2 + r) *. x2)
        +. (x.(c3 + r) *. x3)
    done;
    k := !k + 4
  done;
  for k = !k to n - 1 do
    let ck = k * m in
    let xk = x.(i + ck) in
    for r = lo to m - 1 do
      acc.(r) <- acc.(r) +. (x.(ck + r) *. xk)
    done
  done

(* Golub–Reinsch SVD for m >= n (classic svdcmp structure) on flat
   column-major storage: element (i, j) of [a] lives at [a.(i + j*m)].
   [a] is destroyed; with [want_u] it becomes U (m x n). Returns the
   singular values w (length n, unsorted) and, with [want_v], V (n x n,
   column-major; [||] otherwise). Nothing flows from U or V back into
   w, rv1 or the other factor, so skipping one changes no other bit. *)
let golub_reinsch ~want_u ~want_v a m n =
  let w = Array.make n 0.0 in
  let rv1 = Array.make n 0.0 in
  let v = if want_v then Array.make (n * n) 0.0 else [||] in
  (* one column's dot products with the columns to its right *)
  let dots = Array.make n 0.0 in
  (* the row reflectors' dot products, one per row, summed in increasing k *)
  let acc = Array.make m 0.0 in
  let g = ref 0.0 and scale = ref 0.0 and anorm = ref 0.0 in
  (* Householder reduction to bidiagonal form *)
  let l = ref 0 in
  for i = 0 to n - 1 do
    l := i + 1;
    let l = !l in
    let ci = i * m in
    rv1.(i) <- !scale *. !g;
    g := 0.0;
    scale := 0.0;
    for k = i to m - 1 do
      scale := !scale +. Float.abs a.(ci + k)
    done;
    if not (Float.equal !scale 0.0) then begin
      let s = ref 0.0 in
      for k = i to m - 1 do
        a.(ci + k) <- a.(ci + k) /. !scale;
        s := !s +. (a.(ci + k) *. a.(ci + k))
      done;
      let f = a.(ci + i) in
      g := -.sign_of (sqrt !s) f;
      let h = (f *. !g) -. !s in
      a.(ci + i) <- f -. !g;
      column_dots ~p:a ~po:ci a m i l n dots;
      for j = l to n - 1 do
        axpy (dots.(j) /. h) a ~xo:ci ~yo:(j * m) i m
      done;
      for k = i to m - 1 do
        a.(ci + k) <- a.(ci + k) *. !scale
      done
    end;
    w.(i) <- !scale *. !g;
    g := 0.0;
    scale := 0.0;
    if i <> n - 1 then begin
      for k = l to n - 1 do
        scale := !scale +. Float.abs a.(i + (k * m))
      done;
      if not (Float.equal !scale 0.0) then begin
        let s = ref 0.0 in
        for k = l to n - 1 do
          let ik = i + (k * m) in
          a.(ik) <- a.(ik) /. !scale;
          s := !s +. (a.(ik) *. a.(ik))
        done;
        let f = a.(i + (l * m)) in
        g := -.sign_of (sqrt !s) f;
        let h = (f *. !g) -. !s in
        a.(i + (l * m)) <- f -. !g;
        for k = l to n - 1 do
          rv1.(k) <- a.(i + (k * m)) /. h
        done;
        row_dots a m i l n acc;
        for k = l to n - 1 do
          let ck = k * m in
          let r = rv1.(k) in
          for j = l to m - 1 do
            a.(ck + j) <- a.(ck + j) +. (acc.(j) *. r)
          done
        done;
        for k = l to n - 1 do
          let ik = i + (k * m) in
          a.(ik) <- a.(ik) *. !scale
        done
      end
    end;
    anorm := Float.max !anorm (Float.abs w.(i) +. Float.abs rv1.(i))
  done;
  (* Accumulation of right-hand transformations; row i of [a] is
     gathered into [row] so the inner loops run down columns of v. *)
  if want_v then begin
    let row = Array.make n 0.0 in
    for i = n - 1 downto 0 do
      let ci = i * n in
      if i < n - 1 then begin
        if not (Float.equal !g 0.0) then begin
          for k = !l to n - 1 do
            row.(k) <- a.(i + (k * m))
          done;
          for j = !l to n - 1 do
            v.(j + ci) <- row.(j) /. row.(!l) /. !g
          done;
          column_dots ~p:row ~po:0 v n !l !l n dots;
          for j = !l to n - 1 do
            axpy dots.(j) v ~xo:ci ~yo:(j * n) !l n
          done
        end;
        for j = !l to n - 1 do
          v.(i + (j * n)) <- 0.0;
          v.(j + ci) <- 0.0
        done
      end;
      v.(i + ci) <- 1.0;
      g := rv1.(i);
      l := i
    done
  end;
  (* Accumulation of left-hand transformations *)
  if want_u then
    for i = n - 1 downto 0 do
      let l = i + 1 in
      let ci = i * m in
      let g = w.(i) in
      for j = l to n - 1 do
        a.(i + (j * m)) <- 0.0
      done;
      if not (Float.equal g 0.0) then begin
        let ginv = 1.0 /. g in
        column_dots ~p:a ~po:ci a m l l n dots;
        for j = l to n - 1 do
          axpy (dots.(j) /. a.(ci + i) *. ginv) a ~xo:ci ~yo:(j * m) i m
        done;
        for j = i to m - 1 do
          a.(ci + j) <- a.(ci + j) *. ginv
        done
      end
      else
        for j = i to m - 1 do
          a.(ci + j) <- 0.0
        done;
      a.(ci + i) <- a.(ci + i) +. 1.0
    done;
  (* Diagonalization of the bidiagonal form *)
  for k = n - 1 downto 0 do
    let its = ref 0 in
    let converged = ref false in
    while not !converged do
      incr its;
      if !its > 60 then raise No_convergence;
      (* Find the split point l: rv1.(l) negligible, or w.(l-1) negligible *)
      let flag = ref true in
      let l = ref k in
      let nm = ref 0 in
      (try
         while true do
           nm := !l - 1;
           if Float.equal (Float.abs rv1.(!l) +. !anorm) !anorm then begin
             flag := false;
             raise Exit
           end;
           if Float.equal (Float.abs w.(!nm) +. !anorm) !anorm then raise Exit;
           decr l
         done
       with Exit -> ());
      if !flag then begin
        (* Cancellation of rv1.(l) when w.(l-1) is negligible *)
        let c = ref 0.0 and s = ref 1.0 in
        (try
           for i = !l to k do
             let f = !s *. rv1.(i) in
             rv1.(i) <- !c *. rv1.(i);
             if Float.equal (Float.abs f +. !anorm) !anorm then raise Exit;
             let g = w.(i) in
             let h = hypot2 f g in
             w.(i) <- h;
             let hinv = 1.0 /. h in
             c := g *. hinv;
             s := -.f *. hinv;
             if want_u then rotate a m !nm i !c !s
           done
         with Exit -> ())
      end;
      let z = w.(k) in
      if !l = k then begin
        (* convergence; make the singular value non-negative *)
        if z < 0.0 then begin
          w.(k) <- -.z;
          if want_v then
            for j = k * n to (k * n) + n - 1 do
              v.(j) <- -.v.(j)
            done
        end;
        converged := true
      end
      else begin
        (* implicit-shift QR step *)
        let x = w.(!l) in
        let nm = k - 1 in
        let y = w.(nm) in
        let g0 = rv1.(nm) in
        let h = rv1.(k) in
        let f =
          (((y -. z) *. (y +. z)) +. ((g0 -. h) *. (g0 +. h))) /. (2.0 *. h *. y)
        in
        let g1 = hypot2 f 1.0 in
        let f = (((x -. z) *. (x +. z)) +. (h *. ((y /. (f +. sign_of g1 f)) -. h))) /. x in
        let c = ref 1.0 and s = ref 1.0 in
        let f = ref f and x = ref x in
        let g = ref 0.0 and y = ref 0.0 and h = ref 0.0 in
        for j = !l to nm do
          let i = j + 1 in
          g := rv1.(i);
          y := w.(i);
          h := !s *. !g;
          g := !c *. !g;
          let z = hypot2 !f !h in
          rv1.(j) <- z;
          c := !f /. z;
          s := !h /. z;
          let fnew = (!x *. !c) +. (!g *. !s) in
          g := (!g *. !c) -. (!x *. !s);
          h := !y *. !s;
          y := !y *. !c;
          if want_v then rotate v n j i !c !s;
          let z = hypot2 fnew !h in
          w.(j) <- z;
          if not (Float.equal z 0.0) then begin
            let zinv = 1.0 /. z in
            c := fnew *. zinv;
            s := !h *. zinv
          end;
          f := (!c *. !g) +. (!s *. !y);
          x := (!c *. !y) -. (!s *. !g);
          if want_u then rotate a m j i !c !s
        done;
        rv1.(!l) <- 0.0;
        rv1.(k) <- !f;
        w.(k) <- !x
      end
    done
  done;
  (w, v)

let check_finite op a =
  let m, n = Mat.dims a in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if not (Float.is_finite (Mat.get a i j)) then
        invalid_arg
          (Printf.sprintf "%s: non-finite entry %g at (%d, %d) of %dx%d input"
             op (Mat.get a i j) i j m n)
    done
  done

(* The singular values in non-increasing order; [order.(j)] is the
   column of the unsorted factors that becomes column [j]. *)
let sorted_order w =
  let order = Array.init (Array.length w) (fun i -> i) in
  Array.sort (fun i j -> compare w.(j) w.(i)) order;
  order

(* The [rows] x [k] matrix whose column [j] is column [order.(j)] of the
   column-major [x] (leading dimension [rows]). *)
let permuted_cols x rows order =
  Mat.init rows (Array.length order) (fun i j -> x.(i + (order.(j) * rows)))

let factor ?(vectors = Both) a =
  check_finite "Svd.factor" a;
  let m, n = Mat.dims a in
  if m = 0 || n = 0 then { u = Mat.create m 0; s = [||]; v = Mat.create n 0 }
  else begin
    (* Golub–Reinsch wants rows >= cols, column-major. A wide [a]'s
       row-major data already is [transpose a] in column-major order, so
       it factors as is and its U and V swap roles; a tall [a] is
       transposed in. *)
    let wide = m < n in
    let rows, cols = if wide then (n, m) else (m, n) in
    let work = if wide then Array.copy a.Mat.data else (Mat.transpose a).Mat.data in
    let left = vectors <> Values and right = vectors = Both in
    let want_u, want_v = if wide then (right, left) else (left, right) in
    let w, v = golub_reinsch ~want_u ~want_v work rows cols in
    let order = sorted_order w in
    let s = Array.map (fun j -> w.(j)) order in
    let gu = if want_u then permuted_cols work rows order else Mat.create rows 0 in
    let gv = if want_v then permuted_cols v cols order else Mat.create cols 0 in
    if wide then { u = gv; s; v = gu } else { u = gu; s; v = gv }
  end

(* Sort singular values into non-increasing order, permuting the
   columns of the row-major U and V to match. *)
let sort_svd u s v =
  let order = sorted_order s in
  let pick x = Mat.init (fst (Mat.dims x)) (Array.length order) (fun i j -> Mat.get x i order.(j)) in
  (pick u, Array.map (fun j -> s.(j)) order, pick v)

let jacobi_tall a0 =
  (* One-sided Jacobi on a tall matrix: orthogonalize the columns by plane
     rotations; the column norms become the singular values. *)
  let m, n = Mat.dims a0 in
  let a = Mat.to_arrays a0 in
  let v = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    v.(i).(i) <- 1.0
  done;
  let eps = 1e-14 in
  let max_sweeps = 60 in
  let rotated = ref true in
  let sweep = ref 0 in
  while !rotated && !sweep < max_sweeps do
    rotated := false;
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let app = ref 0.0 and aqq = ref 0.0 and apq = ref 0.0 in
        for i = 0 to m - 1 do
          app := !app +. (a.(i).(p) *. a.(i).(p));
          aqq := !aqq +. (a.(i).(q) *. a.(i).(q));
          apq := !apq +. (a.(i).(p) *. a.(i).(q))
        done;
        if Float.abs !apq > eps *. sqrt (!app *. !aqq) then begin
          rotated := true;
          let zeta = (!aqq -. !app) /. (2.0 *. !apq) in
          let t = sign_of 1.0 zeta /. (Float.abs zeta +. sqrt (1.0 +. (zeta *. zeta))) in
          let c = 1.0 /. sqrt (1.0 +. (t *. t)) in
          let s = c *. t in
          for i = 0 to m - 1 do
            let tp = a.(i).(p) in
            let tq = a.(i).(q) in
            a.(i).(p) <- (c *. tp) -. (s *. tq);
            a.(i).(q) <- (s *. tp) +. (c *. tq)
          done;
          for i = 0 to n - 1 do
            let tp = v.(i).(p) in
            let tq = v.(i).(q) in
            v.(i).(p) <- (c *. tp) -. (s *. tq);
            v.(i).(q) <- (s *. tp) +. (c *. tq)
          done
        end
      done
    done
  done;
  let s = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      acc := !acc +. (a.(i).(j) *. a.(i).(j))
    done;
    s.(j) <- sqrt !acc;
    if s.(j) > 0.0 then
      for i = 0 to m - 1 do
        a.(i).(j) <- a.(i).(j) /. s.(j)
      done
  done;
  let u, s, v = sort_svd (Mat.of_arrays a) s (Mat.of_arrays v) in
  { u; s; v }

let factor_jacobi a =
  check_finite "Svd.factor_jacobi" a;
  let m, n = Mat.dims a in
  if m = 0 || n = 0 then { u = Mat.create m 0; s = [||]; v = Mat.create n 0 }
  else if m >= n then jacobi_tall a
  else begin
    let { u; s; v } = jacobi_tall (Mat.transpose a) in
    { u = v; s; v = u }
  end

let default_tol { u; s; v } =
  let m, _ = Mat.dims u in
  let n, _ = Mat.dims v in
  if Array.length s = 0 then 0.0
  else float_of_int (max m n) *. epsilon_float *. s.(0)

let rank ?tol f =
  let tol = match tol with Some t -> t | None -> default_tol f in
  Array.fold_left (fun acc sv -> if sv > tol then acc + 1 else acc) 0 f.s

let reconstruct { u; s; v } =
  let k = Array.length s in
  let m, _ = Mat.dims u in
  let us = Mat.init m k (fun i j -> Mat.get u i j *. s.(j)) in
  Mat.mul_nt us v

let pinv ?tol f =
  let tol = match tol with Some t -> t | None -> default_tol f in
  let k = Array.length f.s in
  let n, _ = Mat.dims f.v in
  let vs = Mat.init n k (fun i j -> if f.s.(j) > tol then Mat.get f.v i j /. f.s.(j) else 0.0) in
  Mat.mul_nt vs f.u
