type t = { rows : int; cols : int; data : float array }

(* PATHSEL_CHECKS contract layer: every dense product re-validates the
   flat-storage invariant and scans its output for NaNs that the inputs
   did not contain (0*inf, inf-inf, uninitialised reads). Off by
   default; one bool read per call when disabled. *)
let check_rep what m =
  Checks.require
    (Array.length m.data = m.rows * m.cols)
    (what ^ ": corrupt matrix (data length <> rows * cols)")

let check_product what a b c =
  if Checks.on () then begin
    check_rep what a;
    check_rep what b;
    Checks.nan_introduced ~what ~inputs:[ a.data; b.data ] c.data
  end

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      m.data.(base + j) <- f i j
    done
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length a.(0) in
    Array.iteri
      (fun i r ->
        if Array.length r <> cols then
          invalid_arg (Printf.sprintf "Mat.of_arrays: row %d has length %d, expected %d"
                         i (Array.length r) cols))
      a;
    init rows cols (fun i j -> a.(i).(j))
  end

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let to_arrays m = Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let of_rows rows_list =
  match rows_list with
  | [] -> create 0 0
  | first :: _ ->
    let cols = Array.length first in
    let rows = List.length rows_list in
    let m = create rows cols in
    List.iteri
      (fun i r ->
        if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows";
        Array.blit r 0 m.data (i * cols) cols)
      rows_list;
    m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag_of_vec v =
  let n = Array.length v in
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i v.(i)
  done;
  m

let diag m = Array.init (min m.rows m.cols) (fun i -> get m i i)

let copy m = { m with data = Array.copy m.data }

let dims m = (m.rows, m.cols)

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dimension mismatch";
  Array.blit v 0 m.data (i * m.cols) m.cols

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let map f m = { m with data = Array.map f m.data }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: dimensions %dx%d and %dx%d differ"
                   name a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let c = { a with data = Array.copy a.data } in
  let cd = c.data and bd = b.data in
  for k = 0 to Array.length cd - 1 do
    Array.unsafe_set cd k (Array.unsafe_get cd k +. Array.unsafe_get bd k)
  done;
  c

let sub a b =
  check_same "sub" a b;
  let c = { a with data = Array.copy a.data } in
  let cd = c.data and bd = b.data in
  for k = 0 to Array.length cd - 1 do
    Array.unsafe_set cd k (Array.unsafe_get cd k -. Array.unsafe_get bd k)
  done;
  c

let sub_into ~into a b =
  check_same "sub_into" a b;
  check_same "sub_into" a into;
  let dd = into.data and ad = a.data and bd = b.data in
  for k = 0 to Array.length dd - 1 do
    Array.unsafe_set dd k (Array.unsafe_get ad k -. Array.unsafe_get bd k)
  done

let scale s m =
  let c = { m with data = Array.copy m.data } in
  let cd = c.data in
  for k = 0 to Array.length cd - 1 do
    Array.unsafe_set cd k (s *. Array.unsafe_get cd k)
  done;
  c

let scale_into ~into s m =
  check_same "scale_into" m into;
  let dd = into.data and md = m.data in
  for k = 0 to Array.length dd - 1 do
    Array.unsafe_set dd k (s *. Array.unsafe_get md k)
  done

let axpy ~alpha x y =
  check_same "axpy" x y;
  let xd = x.data and yd = y.data in
  for k = 0 to Array.length yd - 1 do
    Array.unsafe_set yd k (Array.unsafe_get yd k +. (alpha *. Array.unsafe_get xd k))
  done

let sub_scaled a s b =
  check_same "sub_scaled" a b;
  let c = { a with data = Array.copy a.data } in
  let cd = c.data and bd = b.data in
  for k = 0 to Array.length cd - 1 do
    Array.unsafe_set cd k (Array.unsafe_get cd k -. (s *. Array.unsafe_get bd k))
  done;
  c

let add_row_vec_into m v =
  if Array.length v <> m.cols then
    invalid_arg "Mat.add_row_vec_into: dimension mismatch";
  let d = m.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set d (base + j) (Array.unsafe_get d (base + j) +. Array.unsafe_get v j)
    done
  done

let sub_row_vec m v =
  if Array.length v <> m.cols then invalid_arg "Mat.sub_row_vec: dimension mismatch";
  let c = { m with data = Array.copy m.data } in
  let d = c.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set d (base + j) (Array.unsafe_get d (base + j) -. Array.unsafe_get v j)
    done
  done;
  c

(* ------------------------------------------------------------------ *)
(* Dense products: cache-blocked, row-band parallel.

   Every kernel parallelizes over disjoint bands of *output* rows, and
   within a band runs the exact same inner loops (same floating-point
   evaluation order per output element) as the serial fallback, so
   results are bit-identical at any pool size. Blocking only re-tiles
   the traversal; per-element accumulation stays in ascending-k order. *)

(* Products below this flop count stay serial: domain wake-up costs more
   than the work. Tests lower it to force the parallel path on tiny
   matrices. *)
let par_threshold = ref 200_000

let set_par_threshold n = par_threshold := max 0 n

let par_threshold_value () = !par_threshold

(* rows per chunk so that one chunk is ~[par_threshold] flops *)
let row_grain per_row_flops = max 1 (!par_threshold / max 1 per_row_flops)

(* keep the [c] row segment plus the streamed [b] row segment resident
   in L1: 2 x 1024 doubles = 16 KiB *)
let j_block = 1024

(* ikj loop order: the inner loop streams over contiguous rows of [b] and
   [c], which is what makes large products affordable in pure OCaml. *)
let mul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.mul: %dx%d times %dx%d" a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  let n = b.cols in
  let kk = a.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  let band ilo ihi =
    for i = ilo to ihi - 1 do
      let abase = i * kk in
      let cbase = i * n in
      let jb = ref 0 in
      while !jb < n do
        let jhi = min n (!jb + j_block) in
        for k = 0 to kk - 1 do
          let aik = Array.unsafe_get ad (abase + k) in
          if not (Float.equal aik 0.0) then begin
            let bbase = k * n in
            for j = !jb to jhi - 1 do
              Array.unsafe_set cd (cbase + j)
                (Array.unsafe_get cd (cbase + j)
                 +. (aik *. Array.unsafe_get bd (bbase + j)))
            done
          end
        done;
        jb := jhi
      done
    done
  in
  Par.Pool.parallel_chunks ~grain:(row_grain (2 * kk * n)) 0 a.rows band;
  check_product "Mat.mul" a b c;
  c

let mul_nt a b =
  if a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.mul_nt: %dx%d times (%dx%d)^T"
                   a.rows a.cols b.rows b.cols);
  let c = create a.rows b.rows in
  let kk = a.cols in
  let nr = b.rows in
  let ad = a.data and bd = b.data and cd = c.data in
  (* 4 dot products per pass share one streaming read of [a]'s row *)
  let band ilo ihi =
    for i = ilo to ihi - 1 do
      let abase = i * kk in
      let cbase = i * nr in
      let j = ref 0 in
      while !j + 3 < nr do
        let b0 = !j * kk and b1 = (!j + 1) * kk and b2 = (!j + 2) * kk
        and b3 = (!j + 3) * kk in
        let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
        for k = 0 to kk - 1 do
          let av = Array.unsafe_get ad (abase + k) in
          acc0 := !acc0 +. (av *. Array.unsafe_get bd (b0 + k));
          acc1 := !acc1 +. (av *. Array.unsafe_get bd (b1 + k));
          acc2 := !acc2 +. (av *. Array.unsafe_get bd (b2 + k));
          acc3 := !acc3 +. (av *. Array.unsafe_get bd (b3 + k))
        done;
        Array.unsafe_set cd (cbase + !j) !acc0;
        Array.unsafe_set cd (cbase + !j + 1) !acc1;
        Array.unsafe_set cd (cbase + !j + 2) !acc2;
        Array.unsafe_set cd (cbase + !j + 3) !acc3;
        j := !j + 4
      done;
      while !j < nr do
        let bbase = !j * kk in
        let acc = ref 0.0 in
        for k = 0 to kk - 1 do
          acc := !acc +. (Array.unsafe_get ad (abase + k) *. Array.unsafe_get bd (bbase + k))
        done;
        Array.unsafe_set cd (cbase + !j) !acc;
        incr j
      done
    done
  in
  Par.Pool.parallel_chunks ~grain:(row_grain (2 * kk * nr)) 0 a.rows band;
  check_product "Mat.mul_nt" a b c;
  c

let mul_tn a b =
  if a.rows <> b.rows then
    invalid_arg (Printf.sprintf "Mat.mul_tn: (%dx%d)^T times %dx%d"
                   a.rows a.cols b.rows b.cols);
  let c = create a.cols b.cols in
  let nr = a.rows in
  let nc = b.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  (* bands over output rows i (= columns of a); the k sweep stays
     outermost inside a band so [b]'s rows stream contiguously *)
  let band ilo ihi =
    for k = 0 to nr - 1 do
      let abase = k * a.cols in
      let bbase = k * nc in
      for i = ilo to ihi - 1 do
        let aki = Array.unsafe_get ad (abase + i) in
        if not (Float.equal aki 0.0) then begin
          let cbase = i * nc in
          for j = 0 to nc - 1 do
            Array.unsafe_set cd (cbase + j)
              (Array.unsafe_get cd (cbase + j)
               +. (aki *. Array.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  in
  Par.Pool.parallel_chunks ~grain:(row_grain (2 * nr * nc)) 0 a.cols band;
  check_product "Mat.mul_tn" a b c;
  c

let gram a =
  let c = create a.rows a.rows in
  let kk = a.cols in
  let ad = a.data and cd = c.data in
  (* row i owns both (i, j) and its mirror (j, i) for j >= i: bands never
     write the same element. Triangular rows are uneven; the pool's
     dynamic chunking balances them. *)
  let band ilo ihi =
    for i = ilo to ihi - 1 do
      let ibase = i * kk in
      for j = i to a.rows - 1 do
        let jbase = j * kk in
        let acc = ref 0.0 in
        for k = 0 to kk - 1 do
          acc := !acc +. (Array.unsafe_get ad (ibase + k) *. Array.unsafe_get ad (jbase + k))
        done;
        Array.unsafe_set cd ((i * a.rows) + j) !acc;
        Array.unsafe_set cd ((j * a.rows) + i) !acc
      done
    done
  in
  Par.Pool.parallel_chunks ~grain:(row_grain (a.rows * kk)) 0 a.rows band;
  check_product "Mat.gram" a a c;
  c

let apply m x =
  if Array.length x <> m.cols then
    invalid_arg (Printf.sprintf "Mat.apply: %dx%d times vector of dim %d"
                   m.rows m.cols (Array.length x));
  let y =
    Array.init m.rows (fun i ->
        let base = i * m.cols in
        let acc = ref 0.0 in
        for j = 0 to m.cols - 1 do
          acc := !acc +. (m.data.(base + j) *. x.(j))
        done;
        !acc)
  in
  if Checks.on () then begin
    check_rep "Mat.apply" m;
    Checks.nan_introduced ~what:"Mat.apply" ~inputs:[ m.data; x ] y
  end;
  y

let apply_t m x =
  if Array.length x <> m.rows then
    invalid_arg (Printf.sprintf "Mat.apply_t: (%dx%d)^T times vector of dim %d"
                   m.rows m.cols (Array.length x));
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let xi = x.(i) in
    if not (Float.equal xi 0.0) then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (xi *. m.data.(base + j))
      done
  done;
  if Checks.on () then begin
    check_rep "Mat.apply_t" m;
    Checks.nan_introduced ~what:"Mat.apply_t" ~inputs:[ m.data; x ] y
  end;
  y

let select_rows m idx =
  let r = create (Array.length idx) m.cols in
  Array.iteri
    (fun k i ->
      if i < 0 || i >= m.rows then invalid_arg "Mat.select_rows: index out of range";
      Array.blit m.data (i * m.cols) r.data (k * m.cols) m.cols)
    idx;
  r

let drop_rows m idx =
  let dropped = Array.make m.rows false in
  Array.iter
    (fun i ->
      if i < 0 || i >= m.rows then invalid_arg "Mat.drop_rows: index out of range";
      dropped.(i) <- true)
    idx;
  let keep = ref [] in
  for i = m.rows - 1 downto 0 do
    if not dropped.(i) then keep := i :: !keep
  done;
  select_rows m (Array.of_list !keep)

let select_cols m idx =
  init m.rows (Array.length idx) (fun i k ->
      let j = idx.(k) in
      if j < 0 || j >= m.cols then invalid_arg "Mat.select_cols: index out of range";
      get m i j)

let sub_left_cols m k =
  if k < 0 || k > m.cols then invalid_arg "Mat.sub_left_cols: bad column count";
  let r = create m.rows k in
  for i = 0 to m.rows - 1 do
    Array.blit m.data (i * m.cols) r.data (i * k) k
  done;
  r

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row counts differ";
  let c = create a.rows (a.cols + b.cols) in
  for i = 0 to a.rows - 1 do
    Array.blit a.data (i * a.cols) c.data (i * c.cols) a.cols;
    Array.blit b.data (i * b.cols) c.data ((i * c.cols) + a.cols) b.cols
  done;
  c

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column counts differ";
  let c = create (a.rows + b.rows) a.cols in
  Array.blit a.data 0 c.data 0 (Array.length a.data);
  Array.blit b.data 0 c.data (Array.length a.data) (Array.length b.data);
  c

let row_norms2 m =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        let v = m.data.(base + j) in
        acc := !acc +. (v *. v)
      done;
      sqrt !acc)

let frobenius m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let v = m.data.(k) in
    acc := !acc +. (v *. v)
  done;
  sqrt !acc

let norm_inf m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let a = Float.abs m.data.(k) in
    if a > !acc then acc := a
  done;
  !acc

let equal ?(tol = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
    let ok = ref true in
    for k = 0 to Array.length a.data - 1 do
      if Float.abs (a.data.(k) -. b.data.(k)) > tol then ok := false
    done;
    !ok
  end

let bits_equal a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let rec go k =
    k = Array.length a.data
    || Int64.equal (Int64.bits_of_float a.data.(k)) (Int64.bits_of_float b.data.(k))
       && go (k + 1)
  in
  go 0

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%10.4g" (get m i j)
    done;
    Format.fprintf fmt "]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
