type schedule = Linear | Bisection

type t = {
  indices : int array;
  predictor : Predictor.t;
  rank : int;
  effective_rank : int;
  eps_r : float;
  per_path_eps : Linalg.Vec.t;
  evaluations : int;
}

type engine = Auto | Exact | Sketched

type sketch = { sketch_rank : int option; sketch_seed : int }

let default_seed = 0x5e1ec7

let default_sketch = { sketch_rank = None; sketch_seed = default_seed }

let sketch_threshold = 4096

(* The range finder's stop for a sketch record, validated before any
   engine runs: a nonpositive fixed rank would otherwise clamp to a
   silent rank-1 sketch — degraded selections with no diagnostic.
   Without a fixed rank the range finder grows until the Frobenius
   tail-energy fraction clears [eta^2]: [eta] is the paper's
   effective-rank threshold, squared because the tail is measured in
   energy (sigma^2), not the linear sigma sum. *)
let sketch_stop ~config sketch =
  match sketch.sketch_rank with
  | Some r when r < 1 -> invalid_arg "Select: sketch_rank must be >= 1"
  | Some r -> Linalg.Rsvd.Rank r
  | None -> Linalg.Rsvd.Tail_energy (config.Config.eta *. config.Config.eta)

(* Golub–Reinsch can fail to converge on pathological inputs; rather than
   abort the whole selection, retry with a full-rank randomized SVD, and
   only surface a typed numerical error if that also fails. *)
let factor_with_fallback ?(seed = default_seed) a =
  try Linalg.Svd.factor ~vectors:Left a
  with Linalg.Svd.No_convergence ->
    let m, n = Linalg.Mat.dims a in
    (try Linalg.Rsvd.to_svd (Linalg.Rsvd.factor ~rank:(min m n) ~seed a)
     with e ->
       Errors.raise_error
         (Errors.Numerical
            {
              op = "Select.factor_with_fallback";
              msg =
                "SVD did not converge and the randomized fallback failed: "
                ^ Printexc.to_string e;
            }))

(* Lemma 1 as an algorithm (see the .mli). G is 0/1, so G·Rᵀ is row
   sums of Rᵀ's rows: one CSR product, formed as its transpose R·Gᵀ. *)
let segment_svd ~g ~sigma =
  let r = Linalg.Qr.r (Linalg.Qr.factor (Linalg.Mat.transpose sigma)) in
  let m = Linalg.Mat.transpose (Linalg.Sparse.mul_dense_nt r (Linalg.Sparse.of_dense g)) in
  let f = Linalg.Svd.factor ~vectors:Left m in
  { f with Linalg.Svd.v = Linalg.Mat.create (snd (Linalg.Mat.dims sigma)) 0 }

(* The engine dispatch shared by every dense entry point. [Auto] keeps
   small pools on the exact Golub–Reinsch factorization (bit-compatible
   with the pre-engine behaviour) and switches to the randomized sketch
   at [sketch_threshold] rows, where the dense SVD's cubic cost starts
   to dominate. The exact factorization takes the segment route when
   the caller has [factors = (g, sigma)] and n_S < m, and falls back to
   A's own SVD if the small one does not converge. *)
let factor_for ~config ~engine ~sketch ~factors a =
  let stop = sketch_stop ~config sketch in
  let use_sketch =
    match engine with
    | Exact -> false
    | Sketched -> true
    | Auto -> fst (Linalg.Mat.dims a) >= sketch_threshold
  in
  let of_a () = factor_with_fallback ~seed:sketch.sketch_seed a in
  if use_sketch then
    Linalg.Rsvd.(to_svd (fst (factor_op ~stop ~seed:sketch.sketch_seed (op_of_mat a))))
  else
    match factors with
    | Some (g, sigma) ->
      let n, m = Linalg.Mat.dims a and n_s, sm = Linalg.Mat.dims sigma in
      if Linalg.Mat.dims g <> (n, n_s) || sm <> m then
        invalid_arg "Select: factors (g, sigma) do not match a = g * sigma";
      if n_s >= m then of_a ()
      else (try segment_svd ~g ~sigma with Linalg.Svd.No_convergence -> of_a ())
    | None -> of_a ()

let build_at ~svd ~a ~mu ~r =
  let indices = Subset_select.rows_from_svd svd ~r in
  let predictor = Predictor.build ~a ~mu ~rep:indices in
  (indices, predictor)

let finish ~config ~svd ~kappa ~t_cons ~evaluations (indices, predictor) =
  let rank = Linalg.Svd.rank ?tol:config.Config.rank_tol svd in
  {
    indices;
    predictor;
    rank;
    effective_rank = Effective_rank.of_singular_values ~eta:config.Config.eta svd.Linalg.Svd.s;
    eps_r = Predictor.epsilon_r predictor ~kappa ~t_cons;
    per_path_eps = Predictor.per_path_epsilon predictor ~kappa ~t_cons;
    evaluations;
  }

(* Fixed-size selection: no tolerance search, so [t_cons] only keeps the
   bookkeeping's epsilon_r well-defined; use the largest path mean. *)
let fixed_size ~config ~engine ~sketch ?factors ~a ~mu size =
  Config.validate config;
  let svd = factor_for ~config ~engine ~sketch ~factors a in
  let sel = build_at ~svd ~a ~mu ~r:(size svd) in
  let t_cons = Float.max 1e-9 (Array.fold_left Float.max 0.0 mu) in
  finish ~config ~svd ~kappa:config.Config.kappa ~t_cons ~evaluations:1 sel

let exact ?(config = Config.default) ?(engine = Auto) ?(sketch = default_sketch) ?factors
    ~a ~mu () =
  fixed_size ~config ~engine ~sketch ?factors ~a ~mu (fun svd ->
      max 1 (Linalg.Svd.rank ?tol:config.Config.rank_tol svd))

let select_with_size ?(config = Config.default) ?(engine = Auto)
    ?(sketch = default_sketch) ~a ~mu ~r () =
  fixed_size ~config ~engine ~sketch ~a ~mu (fun _ -> r)

(* The smallest size in [1, rank] whose [eval] error is within [eps],
   assuming feasibility is monotone in the size: probe [rank] (returned
   as is when infeasible), then 1, then bisect between them. *)
let bisect ~eps ~rank eval =
  (* the smallest feasible size lies in (lo, hi]; [best] is feasible at hi *)
  let rec go lo hi best =
    if hi - lo <= 1 then best
    else begin
      let mid = (lo + hi) / 2 in
      let sel, e = eval mid in
      if e <= eps then go lo mid sel else go mid hi best
    end
  in
  let top, e_top = eval rank in
  if e_top > eps then top
  else begin
    let one, e_one = eval 1 in
    if e_one <= eps then one else go 1 rank top
  end

(* The tolerance search shared by [approximate] and [approximate_nested]:
   validate, factor, and count the [eval r] calls of [search], which
   picks the selection from the factorization's numerical rank. *)
let search_within ~name ~config ~engine ~sketch ?factors ~a ~eps ~t_cons search =
  Config.validate config;
  if eps <= 0.0 then invalid_arg (name ^ ": eps must be positive");
  if t_cons <= 0.0 then invalid_arg (name ^ ": t_cons must be positive");
  let svd = factor_for ~config ~engine ~sketch ~factors a in
  let rank = max 1 (Linalg.Svd.rank ?tol:config.Config.rank_tol svd) in
  let evaluations = ref 0 in
  let counted eval r =
    incr evaluations;
    eval r
  in
  let result = search ~svd ~rank counted in
  finish ~config ~svd ~kappa:config.Config.kappa ~t_cons ~evaluations:!evaluations result

let approximate ?(config = Config.default) ?(schedule = Bisection) ?(engine = Auto)
    ?(sketch = default_sketch) ?factors ~a ~mu ~eps ~t_cons () =
  let kappa = config.Config.kappa in
  search_within ~name:"Select.approximate" ~config ~engine ~sketch ?factors ~a ~eps ~t_cons
  @@ fun ~svd ~rank counted ->
  let eval =
    counted (fun r ->
        let sel = build_at ~svd ~a ~mu ~r in
        (sel, Predictor.epsilon_r (snd sel) ~kappa ~t_cons))
  in
  match schedule with
  | Linear ->
    (* Paper's loop: start at rank (error 0) and decrement while the
       tolerance holds; keep the last feasible selection. *)
    let rec go r best =
      if r < 1 then best
      else begin
        let sel, e = eval r in
        if e <= eps then go (r - 1) (Some sel) else best
      end
    in
    (match go rank None with
     | Some sel -> sel
     | None -> fst (eval rank))
  | Bisection -> bisect ~eps ~rank eval

let approximate_nested ?(config = Config.default) ?(engine = Auto)
    ?(sketch = default_sketch) ~a ~mu ~eps ~t_cons () =
  let kappa = config.Config.kappa in
  search_within ~name:"Select.approximate_nested" ~config ~engine ~sketch ~a ~eps ~t_cons
  @@ fun ~svd ~rank counted ->
  let order = Subset_select.nested_rows svd in
  bisect ~eps ~rank
    (counted (fun r ->
         let indices = Array.sub order 0 (min r (Array.length order)) in
         Array.sort compare indices;
         let predictor = Predictor.build ~a ~mu ~rep:indices in
         ((indices, predictor), Predictor.epsilon_r predictor ~kappa ~t_cons)))

type stream_t = {
  stream_indices : int array;
  stream_svd : Linalg.Svd.t;
  sketch_rank_used : int;
  tail_fraction : float;
}

(* The million-path entry point: the pool exists only as a mat-mul
   operator (e.g. [Timing.Pool_stream.op]), the sketch factorization
   streams through it, and pivoted QR runs on the k x rows transpose of
   the sketched left basis — the densest allocations are
   [rows x sketch_width] tall blocks. No Theorem-2 predictor is built
   here (that needs the dense representative rows of A, which the
   operator does not expose), so this returns the representative set
   and the sketched spectrum. *)
let sketch_representatives ?(config = Config.default) ?(sketch = default_sketch) ?r
    ~ops:(op : Linalg.Rsvd.op) () =
  Config.validate config;
  let stop = sketch_stop ~config sketch in
  let f, tail = Linalg.Rsvd.factor_op ~stop ~seed:sketch.sketch_seed op in
  let svd = Linalg.Rsvd.to_svd f in
  let k_used = Array.length svd.Linalg.Svd.s in
  if k_used = 0 then
    Errors.raise_error
      (Errors.Numerical
         { op = "Select.sketch_representatives"; msg = "sketch captured an empty range" });
  let r =
    match r with
    | Some r -> max 1 (min r k_used)
    | None ->
      max 1 (Effective_rank.of_singular_values ~eta:config.Config.eta svd.Linalg.Svd.s)
  in
  let indices = Subset_select.rows_from_svd svd ~r in
  { stream_indices = indices; stream_svd = svd; sketch_rank_used = k_used; tail_fraction = tail }
