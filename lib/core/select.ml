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

type sketch = {
  sketch_rank : int option;
  oversample : int;
  power_iters : int;
  sketch_seed : int;
}

let default_seed = 0x5e1ec7

let default_sketch =
  { sketch_rank = None; oversample = 8; power_iters = 2; sketch_seed = default_seed }

let sketch_threshold = 4096

(* A nonpositive fixed rank would otherwise clamp to a silent rank-1
   sketch — degraded selections with no diagnostic. *)
let check_sketch { sketch_rank; oversample; power_iters; sketch_seed = _ } =
  (match sketch_rank with
   | Some r when r < 1 -> invalid_arg "Select: sketch_rank must be >= 1"
   | _ -> ());
  if oversample < 0 then invalid_arg "Select: oversample must be >= 0";
  if power_iters < 0 then invalid_arg "Select: power_iters must be >= 0"

(* Golub–Reinsch can fail to converge on pathological inputs; rather than
   abort the whole selection, retry with a full-rank randomized SVD, and
   only surface a typed numerical error if that also fails. *)
let factor_with_fallback ?(seed = default_seed) a =
  try Linalg.Svd.factor a
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

(* The engine dispatch shared by every dense entry point. [Auto] keeps
   small pools on the exact Golub–Reinsch factorization (bit-compatible
   with the pre-engine behaviour) and switches to the randomized sketch
   at [sketch_threshold] rows, where the dense SVD's cubic cost starts
   to dominate. The adaptive sketch grows until the Frobenius
   tail-energy fraction clears [eta^2] — [eta] being the same knob as
   the paper's effective-rank threshold, squared because the probe
   estimate measures energy (sigma^2), not the linear sigma sum. *)
let factor_for ~config ~engine ~sketch a =
  check_sketch sketch;
  let m, n = Linalg.Mat.dims a in
  let use_sketch =
    match engine with
    | Exact -> false
    | Sketched -> true
    | Auto -> m >= sketch_threshold
  in
  if not use_sketch then factor_with_fallback ~seed:sketch.sketch_seed a
  else begin
    let { sketch_rank; oversample; power_iters; sketch_seed = seed } = sketch in
    let op = Linalg.Rsvd.op_of_mat a in
    let f =
      match sketch_rank with
      | Some r ->
        Linalg.Rsvd.factor_op ~oversample ~power_iters ~rank:(max 1 (min r (min m n))) ~seed op
      | None ->
        let eta = config.Config.eta in
        fst
          (Linalg.Rsvd.factor_adaptive ~oversample ~power_iters
             ~tail_energy:(eta *. eta) ~seed op)
    in
    Linalg.Rsvd.to_svd f
  end

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

let exact ?(config = Config.default) ?(engine = Auto) ?(sketch = default_sketch) ~a ~mu () =
  Config.validate config;
  let svd = factor_for ~config ~engine ~sketch a in
  let rank = max 1 (Linalg.Svd.rank ?tol:config.Config.rank_tol svd) in
  let sel = build_at ~svd ~a ~mu ~r:rank in
  (* t_cons is irrelevant for the exact selection's bookkeeping; use the
     largest path mean to keep epsilon_r well-defined *)
  let t_cons = Float.max 1e-9 (Array.fold_left Float.max 0.0 mu) in
  finish ~config ~svd ~kappa:config.Config.kappa ~t_cons ~evaluations:1 sel

let approximate ?(config = Config.default) ?(schedule = Bisection) ?(engine = Auto)
    ?(sketch = default_sketch) ~a ~mu ~eps ~t_cons () =
  Config.validate config;
  if eps <= 0.0 then invalid_arg "Select.approximate: eps must be positive";
  if t_cons <= 0.0 then invalid_arg "Select.approximate: t_cons must be positive";
  let kappa = config.Config.kappa in
  let svd = factor_for ~config ~engine ~sketch a in
  let rank = max 1 (Linalg.Svd.rank ?tol:config.Config.rank_tol svd) in
  let evaluations = ref 0 in
  let eval r =
    incr evaluations;
    let sel = build_at ~svd ~a ~mu ~r in
    let e = Predictor.epsilon_r (snd sel) ~kappa ~t_cons in
    (sel, e)
  in
  let result =
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
    | Bisection ->
      (* invariant: feasible at hi, infeasible below lo (or lo = 0) *)
      let rec go lo hi best =
        (* smallest feasible r lies in (lo, hi]; best is feasible at hi *)
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
  in
  finish ~config ~svd ~kappa ~t_cons ~evaluations:!evaluations result

let approximate_nested ?(config = Config.default) ?(engine = Auto)
    ?(sketch = default_sketch) ~a ~mu ~eps ~t_cons () =
  Config.validate config;
  if eps <= 0.0 then invalid_arg "Select.approximate_nested: eps must be positive";
  if t_cons <= 0.0 then invalid_arg "Select.approximate_nested: t_cons must be positive";
  let kappa = config.Config.kappa in
  let svd = factor_for ~config ~engine ~sketch a in
  let rank = max 1 (Linalg.Svd.rank ?tol:config.Config.rank_tol svd) in
  let order = Subset_select.nested_rows svd in
  let evaluations = ref 0 in
  let eval r =
    incr evaluations;
    let indices = Array.sub order 0 (min r (Array.length order)) in
    Array.sort compare indices;
    let predictor = Predictor.build ~a ~mu ~rep:indices in
    ((indices, predictor), Predictor.epsilon_r predictor ~kappa ~t_cons)
  in
  let rec go lo hi best =
    if hi - lo <= 1 then best
    else begin
      let mid = (lo + hi) / 2 in
      let sel, e = eval mid in
      if e <= eps then go lo mid sel else go mid hi best
    end
  in
  let top, e_top = eval rank in
  let result =
    if e_top > eps then top
    else begin
      let one, e_one = eval 1 in
      if e_one <= eps then one else go 1 rank top
    end
  in
  finish ~config ~svd ~kappa ~t_cons ~evaluations:!evaluations result

let select_with_size ?(config = Config.default) ?(engine = Auto)
    ?(sketch = default_sketch) ~a ~mu ~r () =
  Config.validate config;
  let svd = factor_for ~config ~engine ~sketch a in
  let sel = build_at ~svd ~a ~mu ~r in
  let t_cons = Float.max 1e-9 (Array.fold_left Float.max 0.0 mu) in
  finish ~config ~svd ~kappa:config.Config.kappa ~t_cons ~evaluations:1 sel

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
   here (that needs dense representative rows; see
   [Pool_stream.rows_dense] for the follow-up), so this returns the
   representative set and the sketched spectrum. *)
let sketch_representatives ?(config = Config.default) ?(sketch = default_sketch) ?r
    ~ops:(op : Linalg.Rsvd.op) () =
  Config.validate config;
  check_sketch sketch;
  let { sketch_rank; oversample; power_iters; sketch_seed = seed } = sketch in
  let f, tail =
    match sketch_rank with
    | Some k ->
      let f =
        Linalg.Rsvd.factor_op ~oversample ~power_iters
          ~rank:(max 1 (min k (min op.Linalg.Rsvd.rows op.Linalg.Rsvd.cols)))
          ~seed op
      in
      (f, Float.nan)
    | None ->
      let eta = config.Config.eta in
      Linalg.Rsvd.factor_adaptive ~oversample ~power_iters ~tail_energy:(eta *. eta)
        ~seed op
  in
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
