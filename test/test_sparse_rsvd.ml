(* Tests for the CSR sparse matrices and the randomized SVD. *)

open Helpers

(* Each case draws from its own LCG, so running, filtering or deleting
   one case leaves the inputs of the others as they are. The seeds are
   the states one LCG shared by the cases (seeded 99) reached at each
   call, in suite order, so every case keeps the matrix it was written
   against. *)
let random_sparse_dense ~seed m n density =
  let state = ref seed in
  Linalg.Mat.init m n (fun _ _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let v = (float_of_int !state /. float_of_int 0x3FFFFFFF *. 2.0) -. 1.0 in
      if Float.abs v < 1.0 -. density then 0.0 else v)

(* ------------------------------------------------------------------ *)
(* Sparse *)

let test_sparse_roundtrip () =
  let d = random_sparse_dense ~seed:99 7 9 0.3 in
  let s = Linalg.Sparse.of_dense d in
  Alcotest.(check bool) "to_dense inverts of_dense" true
    (Linalg.Mat.equal d (Linalg.Sparse.to_dense s));
  Alcotest.(check bool) "equal_dense agrees" true (Linalg.Sparse.equal_dense s d)

let test_sparse_of_rows_duplicates () =
  let s = Linalg.Sparse.of_rows 3 [| [ (0, 1.0); (0, 2.0); (2, 5.0) ]; [] |] in
  check_close "summed duplicate" 3.0 (Linalg.Sparse.get s 0 0);
  check_close "other entry" 5.0 (Linalg.Sparse.get s 0 2);
  check_close "empty row" 0.0 (Linalg.Sparse.get s 1 1);
  Alcotest.(check int) "nnz" 2 (Linalg.Sparse.nnz s)

let test_sparse_mul_dense_nt () =
  let a = random_sparse_dense ~seed:539835730 5 7 0.4 in
  let s = Linalg.Sparse.of_dense a in
  let x = Linalg.Mat.init 4 7 (fun i j -> float_of_int ((i * 7) + j) /. 10.0) in
  Alcotest.(check bool) "X A^T bit-equal to dense" true
    (Linalg.Mat.bits_equal (Linalg.Mat.mul_nt x a) (Linalg.Sparse.mul_dense_nt x s))

let test_sparse_of_dense_keeps_nan () =
  let d = Linalg.Mat.of_arrays [| [| 1.0; Float.nan; -0.0 |]; [| -0.0; 0.0; 2.0 |] |] in
  let s = Linalg.Sparse.of_dense d in
  Alcotest.(check int) "NaN kept, zeros dropped" 3 (Linalg.Sparse.nnz s);
  let back = Linalg.Sparse.to_dense s in
  for i = 0 to 1 do
    for j = 0 to 2 do
      let v = Linalg.Mat.get d i j and b = Linalg.Mat.get back i j in
      if not (Float.equal v b) then
        Alcotest.failf "entry (%d,%d): %h became %h" i j v b
    done
  done;
  Alcotest.(check bool) "NaN at its position" true (Float.is_nan (Linalg.Mat.get back 0 1))

let test_sparse_tol_drop () =
  let d = Linalg.Mat.of_arrays [| [| 1.0; 1e-14 |] |] in
  let s = Linalg.Sparse.of_dense ~tol:1e-12 d in
  Alcotest.(check int) "tiny entry dropped" 1 (Linalg.Sparse.nnz s)

(* ------------------------------------------------------------------ *)
(* Streaming builder and the parallel CSR kernels *)

let test_init_rows_matches_of_rows () =
  let rows =
    [| [ (3, 1.5); (0, -2.0) ]; []; [ (1, 4.0); (1, -1.0); (4, 0.5) ] |]
  in
  let a = Linalg.Sparse.of_rows 5 rows in
  let b = Linalg.Sparse.init_rows ~rows:3 ~cols:5 (fun i -> rows.(i)) in
  Alcotest.(check bool) "init_rows = of_rows" true
    (Linalg.Sparse.equal_dense b (Linalg.Sparse.to_dense a))

let test_init_rows_out_of_range () =
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Sparse.init_rows: column out of range")
    (fun () ->
      ignore (Linalg.Sparse.init_rows ~rows:1 ~cols:4 (fun _ -> [ (4, 1.0) ])))

(* PR-3 discipline: the banded kernels must be bit-identical at any
   pool size, including with the grain threshold forced low enough that
   the parallel path actually runs. *)
let with_forced_parallel sizes f =
  let saved_threshold = Linalg.Mat.par_threshold_value () in
  let saved_domains = Par.Pool.size () in
  Linalg.Mat.set_par_threshold 1;
  Fun.protect ~finally:(fun () ->
      Linalg.Mat.set_par_threshold saved_threshold;
      Par.Pool.set_size saved_domains)
  @@ fun () ->
  List.map
    (fun d ->
      Par.Pool.set_size d;
      f ())
    sizes

(* [f] at pool sizes 1, 2 and 4: every result [eq] to the first *)
let check_pool_size_invariant name eq f =
  match with_forced_parallel [ 1; 2; 4 ] f with
  | first :: rest -> List.iter (fun r -> Alcotest.(check bool) name true (eq first r)) rest
  | [] -> assert false

(* The Monte Carlo and Theorem-2 CSR products against the dense kernels
   they replace, bit for bit: at least 70% exact zeros of both signs,
   empty rows, and magnitudes over 40 binades so that any reordered or
   extra term would show in the bits. The 0-9 dense rows give every
   remainder of mul_dense_nt's 4-row blocks, full blocks before it. *)
let csr_product_gen =
  QCheck.Gen.(
    let value = map2 ldexp (float_range (-1.0) 1.0) (int_range (-20) 20) in
    let zero = oneofl [ 0.0; -0.0 ] in
    let sparse_row m =
      let* row = array_repeat m zero in
      let* nz = int_range 0 (3 * m / 10) in
      let* entries = list_repeat nz (pair (int_bound (m - 1)) value) in
      List.iter (fun (j, v) -> row.(j) <- v) entries;
      return row
    in
    let* n = int_range 0 9 in
    let* k = int_range 1 10 in
    let* m = int_range 1 16 in
    let* a = array_repeat k (sparse_row m) in
    let* x = array_repeat n (array_repeat m value) in
    let* w = array_repeat n (array_repeat k (frequency [ (1, zero); (4, value) ])) in
    (* [of_arrays] of no rows is 0 x 0; the products need n x m and n x k *)
    let dense rows cols r = Linalg.Mat.init rows cols (fun i j -> r.(i).(j)) in
    return (Linalg.Mat.of_arrays a, dense n m x, dense n k w))

let csr_product_case =
  QCheck.make
    ~print:(fun (a, x, w) ->
      let shape m = Printf.sprintf "%dx%d" (fst (Linalg.Mat.dims m)) (snd (Linalg.Mat.dims m)) in
      Printf.sprintf "A %s, X %s, W %s" (shape a) (shape x) (shape w))
    csr_product_gen

let prop_csr_products_bit_equal_dense =
  QCheck.Test.make ~count:150
    ~name:"CSR mul_dense_nt/dense_mul bit-equal to Mat.mul_nt/Mat.mul (pool 1 and 4)"
    csr_product_case
    (fun (a, x, w) ->
      let s = Linalg.Sparse.of_dense a in
      Linalg.Mat.bits_equal (Linalg.Sparse.mul_dense_nt x s) (Linalg.Mat.mul_nt x a)
      && Linalg.Mat.bits_equal (Linalg.Sparse.dense_mul w s) (Linalg.Mat.mul w a))

(* the property at pool sizes 1 and 4, on the same cases, with the grain
   threshold low enough that every product takes the parallel path *)
let test_csr_products_bit_equal_dense () =
  ignore
    (with_forced_parallel [ 1; 4 ] (fun () ->
         QCheck.Test.check_exn ~rand:(Random.State.make [| 20 |])
           prop_csr_products_bit_equal_dense))

(* the range finder's shapes: a tall CSR operand and column-major
   blocks of k = 6 dense rows, so the kernels split work over those few
   rows, with a remainder after mul_dense_nt's 4-row block *)
let test_kernels_pool_size_invariant () =
  let d = random_sparse_dense ~seed:94709129 301 23 0.3 in
  let s = Linalg.Sparse.of_dense d in
  let xt = Linalg.Mat.init 6 23 (fun i j -> sin (float_of_int ((j * 6) + i))) in
  let yt = Linalg.Mat.init 6 301 (fun i j -> cos (float_of_int ((j * 6) + i))) in
  check_pool_size_invariant "mul_dense_nt bit-identical" Linalg.Mat.bits_equal (fun () ->
      Linalg.Sparse.mul_dense_nt xt s);
  check_pool_size_invariant "dense_mul bit-identical" Linalg.Mat.bits_equal (fun () ->
      Linalg.Sparse.dense_mul yt s)

(* random CSR row structure with empty rows and duplicate columns; the
   dense reference accumulates duplicates in the same sorted-column
   order the CSR merge uses, so comparisons can stay tight *)
let qcheck_rows_gen =
  QCheck.Gen.(
    let entry cols = pair (int_bound (cols - 1)) (float_range (-2.0) 2.0) in
    let* rows = int_range 1 8 in
    let* cols = int_range 1 9 in
    let* data = array_size (return rows) (list_size (int_bound 6) (entry cols)) in
    return (rows, cols, data))

let qcheck_rows =
  QCheck.make
    ~print:(fun (rows, cols, data) ->
      Printf.sprintf "%dx%d %s" rows cols
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun l ->
                   "["
                   ^ String.concat ","
                       (List.map (fun (j, v) -> Printf.sprintf "(%d,%g)" j v) l)
                   ^ "]")
                 data))))
    qcheck_rows_gen

let dense_of_row_lists rows cols data =
  let m = Linalg.Mat.create rows cols in
  Array.iteri
    (fun i l ->
      List.iter
        (fun (j, v) -> Linalg.Mat.set m i j (Linalg.Mat.get m i j +. v))
        (List.stable_sort (fun (a, _) (b, _) -> compare a b) l))
    data;
  m

let prop_sparse_kernels_match_dense =
  QCheck.Test.make ~count:100
    ~name:"CSR mul_dense_nt/dense_mul match dense refs (dups, empty rows)"
    qcheck_rows
    (fun (rows, cols, data) ->
      let s = Linalg.Sparse.init_rows ~rows ~cols (fun i -> data.(i)) in
      let d = dense_of_row_lists rows cols data in
      let xt = Linalg.Mat.init 3 cols (fun i j -> sin (float_of_int ((j * 3) + i))) in
      let yt = Linalg.Mat.init 3 rows (fun i j -> cos (float_of_int ((j * 3) + i))) in
      Linalg.Sparse.equal_dense ~tol:1e-12 s d
      && Linalg.Mat.bits_equal (Linalg.Sparse.mul_dense_nt xt s) (Linalg.Mat.mul_nt xt d)
      && Linalg.Mat.bits_equal (Linalg.Sparse.dense_mul yt s) (Linalg.Mat.mul yt d))

(* ------------------------------------------------------------------ *)
(* Randomized SVD *)

let test_rsvd_low_rank_exact () =
  (* on an exactly rank-3 matrix, rsvd with rank 3 recovers the spectrum *)
  (* per-column frequencies keep the factors genuinely full rank
     (sin (i*k + j) alone spans only a 2-dimensional space) *)
  let b =
    Linalg.Mat.init 30 3 (fun i j ->
        sin (float_of_int i *. (0.37 +. (0.21 *. float_of_int j))))
  in
  let c =
    Linalg.Mat.init 3 20 (fun i j ->
        cos (float_of_int j *. (0.23 +. (0.31 *. float_of_int i))) /. 3.0)
  in
  let a = Linalg.Mat.mul b c in
  let exact = Linalg.Svd.factor a in
  let approx = Linalg.Rsvd.factor ~rank:3 ~seed:7 a in
  for i = 0 to 2 do
    check_close ~tol:1e-6 (Printf.sprintf "s%d" i) exact.Linalg.Svd.s.(i)
      approx.Linalg.Rsvd.s.(i)
  done

let test_rsvd_leading_values_close () =
  (* on a full-rank matrix with decaying spectrum, the leading values
     are captured to a few percent *)
  let a =
    Linalg.Mat.init 40 25 (fun i j ->
        exp (-0.25 *. float_of_int (min i j)) *. cos (float_of_int ((i * 7) + j)))
  in
  let exact = Linalg.Svd.factor a in
  let approx = Linalg.Rsvd.factor ~rank:5 ~seed:3 a in
  for i = 0 to 4 do
    let rel =
      Float.abs (exact.Linalg.Svd.s.(i) -. approx.Linalg.Rsvd.s.(i))
      /. Float.max 1e-12 exact.Linalg.Svd.s.(i)
    in
    if rel > 0.05 then
      Alcotest.failf "s%d off by %.1f%%" i (100.0 *. rel)
  done

let test_rsvd_orthonormal_u () =
  let a =
    Linalg.Mat.init 20 15 (fun i j ->
        sin (float_of_int i *. (0.51 +. (0.07 *. float_of_int j)))
        +. (0.3 *. cos (float_of_int ((i * 2) + (j * j)))))
  in
  let approx = Linalg.Rsvd.factor ~rank:6 ~seed:9 a in
  let g = Linalg.Mat.mul_tn approx.Linalg.Rsvd.u approx.Linalg.Rsvd.u in
  Alcotest.(check bool) "U^T U = I" true
    (Linalg.Mat.equal ~tol:1e-8 g (Linalg.Mat.identity 6))

(* an operator whose rank is below the block width (duplicated
   columns): the block's Gram is singular, so CholQR2 rejects it (here
   Cholesky meets a nonpositive pivot; the pivot-ratio guard catches
   the barely-positive ones) and the rank-revealing Gram-Schmidt keeps
   exactly the rank's worth of columns, where CholQR2 would have kept
   the whole block.
   Rank 3 sits below the first block; rank 20 fills the first block and
   leaves 4 columns for the second, which is projected against it. *)
let test_rsvd_rank_deficient_block () =
  let dup c =
    Linalg.Mat.init 80 (2 * c) (fun i j ->
        let j = j mod c in
        exp (-0.1 *. float_of_int j)
        *. sin (float_of_int i *. (0.37 +. (0.21 *. float_of_int j))))
  in
  List.iter
    (fun (c, stop) ->
      let f, tail = Linalg.Rsvd.factor_op ~stop ~seed:3 (Linalg.Rsvd.op_of_mat (dup c)) in
      let u = f.Linalg.Rsvd.u in
      Alcotest.(check (pair int int)) "U spans the rank" (80, c) (Linalg.Mat.dims u);
      Alcotest.(check bool) "U^T U = I" true
        (Linalg.Mat.equal ~tol:1e-8 (Linalg.Mat.mul_tn u u) (Linalg.Mat.identity c));
      Alcotest.(check bool) "whole energy captured" true (tail < 1e-12);
      Alcotest.(check (pair int int)) "V not formed" (2 * c, 0)
        (Linalg.Mat.dims f.Linalg.Rsvd.v))
    [ (3, Linalg.Rsvd.Tail_energy 1e-9); (3, Rank 5); (20, Tail_energy 1e-9) ]

let test_rsvd_deterministic () =
  let a = Linalg.Mat.init 15 10 (fun i j -> cos (float_of_int ((3 * i) + j))) in
  let r1 = Linalg.Rsvd.factor ~rank:4 ~seed:5 a in
  let r2 = Linalg.Rsvd.factor ~rank:4 ~seed:5 a in
  Alcotest.(check bool) "same seed, same result" true
    (Linalg.Vec.equal r1.Linalg.Rsvd.s r2.Linalg.Rsvd.s)

let test_rsvd_subset_selection_compatible () =
  (* Algorithm 2 driven by the randomized factorization picks rows that
     still form a well-conditioned basis *)
  let b =
    Linalg.Mat.init 25 4 (fun i j ->
        sin (float_of_int i *. (0.29 +. (0.17 *. float_of_int j))))
  in
  let c =
    Linalg.Mat.init 4 12 (fun i j ->
        cos (float_of_int j *. (0.41 +. (0.13 *. float_of_int i))))
  in
  let a = Linalg.Mat.mul b c in
  let svd = Linalg.Rsvd.to_svd (Linalg.Rsvd.factor ~rank:4 ~seed:11 a) in
  let rows = Core.Subset_select.rows_from_svd svd ~r:4 in
  let sub = Linalg.Mat.select_rows a rows in
  Alcotest.(check int) "independent rows" 4 (Linalg.Rank.of_mat sub)

let prop_rsvd_values_below_exact =
  QCheck.Test.make ~count:25
    ~name:"rsvd singular values never exceed the exact ones (much)"
    QCheck.(int_range 1 500)
    (fun seed ->
      let a =
        Linalg.Mat.init 18 12 (fun i j ->
            sin (float_of_int ((seed * 31) + (i * 5) + j)))
      in
      let exact = Linalg.Svd.factor a in
      let approx = Linalg.Rsvd.factor ~rank:4 ~seed a in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          if s > exact.Linalg.Svd.s.(i) *. (1.0 +. 1e-8) +. 1e-10 then ok := false)
        approx.Linalg.Rsvd.s;
      !ok)

(* ------------------------------------------------------------------ *)
(* Operator-form factorization and the streaming pool *)

let test_factor_op_matches_dense () =
  (* [op_of_mat] runs the CSR kernels; an operator over the dense
     products sums every element in the same order, so their
     factorizations of a fast-decaying full-rank matrix agree bit for
     bit (per-column distinct frequencies keep the columns
     independent) *)
  let d =
    Linalg.Mat.init 60 20 (fun i j ->
        exp (-0.4 *. float_of_int j)
        *. sin (float_of_int i *. (0.31 +. (0.17 *. float_of_int j))))
  in
  let dense, dense_tail =
    Linalg.Rsvd.factor_op ~stop:(Rank 6) ~seed:21
      {
        Linalg.Rsvd.rows = 60;
        cols = 20;
        frob2 = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 d.Linalg.Mat.data;
        mul = (fun xt -> Linalg.Mat.mul_nt xt d);
        tmul = (fun yt -> Linalg.Mat.mul yt d);
      }
  in
  let viaop, viaop_tail =
    Linalg.Rsvd.factor_op ~stop:(Rank 6) ~seed:21 (Linalg.Rsvd.op_of_mat d)
  in
  Alcotest.(check bool) "s bit-equal" true
    (Linalg.Mat.bits_equal
       (Linalg.Mat.of_arrays [| dense.Linalg.Rsvd.s |])
       (Linalg.Mat.of_arrays [| viaop.Linalg.Rsvd.s |]));
  Alcotest.(check bool) "u bit-equal" true
    (Linalg.Mat.bits_equal dense.Linalg.Rsvd.u viaop.Linalg.Rsvd.u);
  Alcotest.(check int64) "tail bit-equal" (Int64.bits_of_float dense_tail)
    (Int64.bits_of_float viaop_tail);
  let exact = Linalg.Svd.factor d in
  for i = 0 to min 3 (Array.length viaop.Linalg.Rsvd.s - 1) do
    let rel =
      Float.abs (exact.Linalg.Svd.s.(i) -. viaop.Linalg.Rsvd.s.(i))
      /. Float.max 1e-12 exact.Linalg.Svd.s.(i)
    in
    if rel > 0.02 then Alcotest.failf "s%d off by %.2f%%" i (100.0 *. rel)
  done

(* decay slow enough that one 16-column block leaves well over 1% of
   the energy in the tail, so the tail-energy stop needs several *)
let slow_decay () =
  Linalg.Mat.init 120 60 (fun i j ->
      exp (-0.05 *. float_of_int j)
      *. cos (float_of_int i *. (0.23 +. (0.11 *. float_of_int j))))

let test_tail_energy_stop () =
  let ops = Linalg.Rsvd.op_of_mat (slow_decay ()) in
  let run e = Linalg.Rsvd.factor_op ~stop:(Tail_energy e) ~seed:4 ops in
  let f, tail = run 0.01 in
  let width = Array.length f.Linalg.Rsvd.s in
  Alcotest.(check bool) "tail cleared" true (tail <= 0.01);
  Alcotest.(check bool) "several whole blocks, or the cap" true
    (width > 16 && (width mod 16 = 0 || width = 60));
  let loose, loose_tail = run 0.9 in
  Alcotest.(check bool) "a loose target stops after one block" true
    (Array.length loose.Linalg.Rsvd.s = 16 && loose_tail <= 0.9);
  let f2, tail2 = run 0.01 in
  Alcotest.(check bool) "bit-identical for the same seed" true
    (Linalg.Mat.bits_equal f.Linalg.Rsvd.u f2.Linalg.Rsvd.u
    && Linalg.Vec.equal ~tol:0.0 f.Linalg.Rsvd.s f2.Linalg.Rsvd.s
    && Float.equal tail tail2)

(* the reported tail is the exact energy outside the returned
   factorization, (||A||^2 - ||U diag(s)||^2) / ||A||^2 from the dense A,
   for both stops; the 1e-12 floor is rounding noise, for a stop that
   captures the whole range (the small stream has rank 16, one block) *)
let check_exact_tail name a ops =
  let frob2 m =
    let f = Linalg.Mat.frobenius m in
    f *. f
  in
  let total = frob2 a in
  List.iter
    (fun (stop_name, stop) ->
      let f, tail = Linalg.Rsvd.factor_op ~stop ~seed:6 ops in
      let captured =
        frob2 (Linalg.Mat.mul f.Linalg.Rsvd.u (Linalg.Mat.diag_of_vec f.Linalg.Rsvd.s))
      in
      let expected = (total -. captured) /. total in
      if not (Float.abs (tail -. expected) <= (1e-9 *. expected) +. 1e-12) then
        Alcotest.failf "%s, %s: reported tail %.17g, exact %.17g" name stop_name tail expected)
    [ ("Rank 3", Linalg.Rsvd.Rank 3); ("Tail_energy 0.05", Linalg.Rsvd.Tail_energy 0.05) ]

(* a small circuit pool for the exact-vs-sketch engine comparisons *)
let small_pool () =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 120; seed = 17 }
  in
  let model = Timing.Variation.make_model ~levels:2 () in
  let setup = Core.Pipeline.prepare ~yield_samples:100 ~netlist:nl ~model () in
  setup

(* a small streamed pool and its A = G * Sigma formed densely, the
   reference for the operator Pool_stream.op exposes; 16 variables, so
   its rank is at most 16, one block *)
let small_stream () =
  let pool =
    Timing.Pool_stream.synthetic ~seed:3 ~paths:60 ~segments:24 ~vars:16
      ~segs_per_path:4 ~vars_per_seg:3 ()
  in
  let a =
    Linalg.Mat.mul
      (Linalg.Sparse.to_dense (Timing.Pool_stream.g pool))
      (Linalg.Sparse.to_dense (Timing.Pool_stream.sigma pool))
  in
  (pool, a)

let test_pool_stream_op_matches_dense () =
  let pool, a = small_stream () in
  let ops = Timing.Pool_stream.op pool in
  Alcotest.(check (pair int int)) "dims" (Linalg.Mat.dims a) (ops.Linalg.Rsvd.rows, ops.cols);
  (* blocks of 5 columns, held column-major as 5 x n *)
  let xt = Linalg.Mat.init 5 16 (fun i j -> sin (float_of_int ((7 * j) + i + 1))) in
  let yt = Linalg.Mat.init 5 60 (fun i j -> cos (float_of_int ((3 * j) + i))) in
  Alcotest.(check bool) "mul xt = (A X)^T" true
    (Linalg.Mat.equal ~tol:1e-12 (ops.mul xt) (Linalg.Mat.mul_nt xt a));
  Alcotest.(check bool) "tmul yt = (A^T Y)^T" true
    (Linalg.Mat.equal ~tol:1e-12 (ops.tmul yt) (Linalg.Mat.mul yt a));
  let a_frob = Linalg.Mat.frobenius a in
  check_close ~tol:(1e-12 *. a_frob *. a_frob) "frob2 = ||A||_F^2" (a_frob *. a_frob)
    ops.frob2

let test_reported_tail_is_exact () =
  let d = slow_decay () in
  check_exact_tail "slow-decay dense" d (Linalg.Rsvd.op_of_mat d);
  let pool, a = small_stream () in
  check_exact_tail "small stream" a (Timing.Pool_stream.op pool)

let test_sketched_engine_matches_exact_selection () =
  (* on a pool with fast decay the sketched engine reproduces the exact
     engine's representative set (verified end-to-end on demo90 too) *)
  let setup = small_pool () in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let ex =
    Core.Select.approximate ~engine:Core.Select.Exact ~a ~mu ~eps:0.05
      ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  let sk =
    Core.Select.approximate ~engine:Core.Select.Sketched ~a ~mu ~eps:0.05
      ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  Alcotest.(check bool) "sketched meets the same tolerance" true
    (sk.Core.Select.eps_r <= 0.05);
  Alcotest.(check bool) "selection size within 2x of exact" true
    (Array.length sk.Core.Select.indices
    <= max 2 (2 * Array.length ex.Core.Select.indices));
  let sk2 =
    Core.Select.approximate ~engine:Core.Select.Sketched ~a ~mu ~eps:0.05
      ~t_cons:setup.Core.Pipeline.t_cons ()
  in
  Alcotest.(check bool) "sketched selection deterministic" true
    (sk.Core.Select.indices = sk2.Core.Select.indices)

let test_sketch_config_validation () =
  (* a nonpositive fixed rank must be rejected, not clamped to a silent
     rank-1 sketch with degraded selections *)
  let setup = small_pool () in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let mu = Timing.Paths.mu_paths setup.Core.Pipeline.pool in
  let bad field sketch =
    Alcotest.check_raises field (Invalid_argument ("Select: " ^ field))
      (fun () ->
        ignore
          (Core.Select.approximate ~engine:Core.Select.Sketched ~sketch ~a ~mu
             ~eps:0.05 ~t_cons:setup.Core.Pipeline.t_cons ()))
  in
  let d = Core.Select.default_sketch in
  bad "sketch_rank must be >= 1" { d with Core.Select.sketch_rank = Some 0 };
  Alcotest.check_raises "streaming entry validates too"
    (Invalid_argument "Select: sketch_rank must be >= 1")
    (fun () ->
      let pool =
        Timing.Pool_stream.synthetic ~seed:3 ~paths:50 ~segments:20 ~vars:10
          ~segs_per_path:4 ~vars_per_seg:2 ()
      in
      ignore
        (Core.Select.sketch_representatives
           ~sketch:{ d with Core.Select.sketch_rank = Some (-1) }
           ~ops:(Timing.Pool_stream.op pool) ()))

let test_sketch_representatives_synthetic () =
  let pool =
    Timing.Pool_stream.synthetic ~seed:5 ~paths:3000 ~segments:300 ~vars:150
      ~segs_per_path:6 ~vars_per_seg:3 ()
  in
  let st =
    Core.Select.sketch_representatives ~ops:(Timing.Pool_stream.op pool) ()
  in
  let idx = st.Core.Select.stream_indices in
  Alcotest.(check bool) "non-empty selection" true (Array.length idx > 0);
  let sorted = Array.copy idx in
  Array.sort compare sorted;
  Alcotest.(check bool) "indices sorted and in range" true
    (idx = sorted && idx.(0) >= 0
    && idx.(Array.length idx - 1) < 3000);
  let distinct = Array.length idx = List.length (List.sort_uniq compare (Array.to_list idx)) in
  Alcotest.(check bool) "indices distinct" true distinct;
  Alcotest.(check bool) "adaptive tail recorded" true
    (Float.is_finite st.Core.Select.tail_fraction);
  let st2 =
    Core.Select.sketch_representatives ~ops:(Timing.Pool_stream.op pool) ()
  in
  Alcotest.(check bool) "deterministic" true
    (st.Core.Select.stream_indices = st2.Core.Select.stream_indices)

(* the multi-block loop (projection against the basis so far, hcat
   across blocks) stays bit-identical at any pool size *)
let test_sketch_pool_size_invariant () =
  let pool =
    Timing.Pool_stream.synthetic ~seed:8 ~decay:40.0 ~paths:2000 ~segments:200 ~vars:120
      ~segs_per_path:6 ~vars_per_seg:3 ()
  in
  let st () = Core.Select.sketch_representatives ~ops:(Timing.Pool_stream.op pool) () in
  Alcotest.(check bool) "several blocks" true ((st ()).Core.Select.sketch_rank_used > 16);
  check_pool_size_invariant "indices, spectrum, tail and U bit-identical"
    (fun a b ->
      a.Core.Select.stream_indices = b.Core.Select.stream_indices
      && Linalg.Vec.equal ~tol:0.0 a.Core.Select.stream_svd.Linalg.Svd.s
           b.Core.Select.stream_svd.Linalg.Svd.s
      && Float.equal a.Core.Select.tail_fraction b.Core.Select.tail_fraction
      && Linalg.Mat.bits_equal a.Core.Select.stream_svd.Linalg.Svd.u
           b.Core.Select.stream_svd.Linalg.Svd.u)
    st

let test_sketch_zero_operator () =
  let ops = Linalg.Rsvd.op_of_mat (Linalg.Mat.create 40 12) in
  match Core.Select.sketch_representatives ~ops () with
  | _ -> Alcotest.fail "a zero operator must not yield a selection"
  | exception Core.Errors.Error (Core.Errors.Numerical { msg; _ }) ->
    Alcotest.(check string) "typed error" "sketch captured an empty range" msg

let unit_tests =
  [
    ("sparse: dense roundtrip", test_sparse_roundtrip);
    ("sparse: of_rows merges duplicates", test_sparse_of_rows_duplicates);
    ("sparse: X A^T kernel", test_sparse_mul_dense_nt);
    ("sparse: CSR products bit-equal dense (property)", test_csr_products_bit_equal_dense);
    ("sparse: tolerance drop", test_sparse_tol_drop);
    ("sparse: of_dense keeps NaN", test_sparse_of_dense_keeps_nan);
    ("sparse: init_rows matches of_rows", test_init_rows_matches_of_rows);
    ("sparse: init_rows rejects bad column", test_init_rows_out_of_range);
    ("sparse: kernels pool-size invariant", test_kernels_pool_size_invariant);
    ("rsvd: exact on low rank", test_rsvd_low_rank_exact);
    ("rsvd: leading values close", test_rsvd_leading_values_close);
    ("rsvd: orthonormal U", test_rsvd_orthonormal_u);
    ("rsvd: rank-deficient block falls back", test_rsvd_rank_deficient_block);
    ("rsvd: deterministic", test_rsvd_deterministic);
    ("rsvd: feeds Algorithm 2", test_rsvd_subset_selection_compatible);
    ("rsvd: operator route matches dense", test_factor_op_matches_dense);
    ("rsvd: adaptive clears the tail", test_tail_energy_stop);
    ("rsvd: reported tail is exact", test_reported_tail_is_exact);
    ("stream: Pool_stream.op = dense G*Sigma", test_pool_stream_op_matches_dense);
    ("select: sketched engine vs exact", test_sketched_engine_matches_exact_selection);
    ("select: sketch config validation", test_sketch_config_validation);
    ("select: sketch_representatives on synthetic", test_sketch_representatives_synthetic);
    ("select: sketch bit-identical at any pool size", test_sketch_pool_size_invariant);
    ("select: sketch of a zero operator raises", test_sketch_zero_operator);
  ]

let property_tests =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_rsvd_values_below_exact; prop_sparse_kernels_match_dense ]

let suites =
  [
    ( "sparse-rsvd",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
      @ property_tests );
  ]
