type estimate = {
  p_fail : float;
  sn_p_fail : float;
  std_err : float;
  sn_std_err : float;
  ess : float;
  samples : int;
  hits : int;
  shift_norm : float;
  dominant : int;
  t_cons : float;
}

let yield_of e = 1.0 -. e.p_fail

(* rows below this Euclidean norm are treated as deterministic: their
   delay is exactly mu_i regardless of the draw *)
let sigma_floor = 1e-12

let check ~a ~mu ~t_cons =
  let n, _ = Linalg.Mat.dims a in
  if Array.length mu <> n then
    invalid_arg "Yield: mu length disagrees with the path count";
  if n < 1 then invalid_arg "Yield: empty path pool";
  if not (Float.is_finite t_cons) then invalid_arg "Yield: t_cons must be finite"

let row_norm a i =
  let _, m = Linalg.Mat.dims a in
  let acc = ref 0.0 in
  for j = 0 to m - 1 do
    let v = Linalg.Mat.get a i j in
    acc := !acc +. (v *. v)
  done;
  sqrt !acc

let dominant_path ~a ~mu ~t_cons =
  check ~a ~mu ~t_cons;
  let n, _ = Linalg.Mat.dims a in
  let best = ref (-1) in
  let best_beta = ref Float.infinity in
  for i = 0 to n - 1 do
    let s = row_norm a i in
    if s > sigma_floor then begin
      let beta = (t_cons -. mu.(i)) /. s in
      if beta < !best_beta then begin
        best := i;
        best_beta := beta
      end
    end
  done;
  (!best, !best_beta)

let design_point ~a ~mu ~t_cons =
  let _, m = Linalg.Mat.dims a in
  match dominant_path ~a ~mu ~t_cons with
  | -1, _ -> Array.make m 0.0
  | i, _ ->
    let s2 =
      let acc = ref 0.0 in
      for j = 0 to m - 1 do
        let v = Linalg.Mat.get a i j in
        acc := !acc +. (v *. v)
      done;
      !acc
    in
    let scale = (t_cons -. mu.(i)) /. s2 in
    Array.init m (fun j -> Linalg.Mat.get a i j *. scale)

(* Deterministic pools need no sampling: the failure is certain or
   impossible, decided by the means alone. *)
let deterministic_estimate ~mu ~t_cons ~samples =
  let fails = Array.exists (fun d -> d > t_cons) mu in
  let p = if fails then 1.0 else 0.0 in
  {
    p_fail = p;
    sn_p_fail = p;
    std_err = 0.0;
    sn_std_err = 0.0;
    ess = float_of_int samples;
    samples;
    hits = (if fails then samples else 0);
    shift_norm = 0.0;
    dominant = -1;
    t_cons;
  }

(* The shared sampler: draw [z ~ N(0, I)] in blocks, evaluate every
   path's delay at [x = shift + z] through the blocked kernels, weight
   by the likelihood ratio
     w(x) = phi(x) / phi(x - x_star) = exp (-(z . x_star) - ||x_star||^2 / 2),
   and accumulate the moment sums both estimators need. The draw order
   is strict sample order (row-major blocks off one stream), so the
   result is bit-identical at any block size >= samples and any domain
   pool size. *)
let estimate_with_shift ~block ~a ~mu ~t_cons ~rng ~samples ~shift ~dominant =
  let _, m = Linalg.Mat.dims a in
  let n_paths = Array.length mu in
  let shift2 =
    Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 shift
  in
  let shift_norm = sqrt shift2 in
  let half = 0.5 *. shift2 in
  (* delay of path i at the design point itself: mu_i + a_i . x* *)
  let base =
    let ax = Linalg.Mat.apply a shift in
    Array.init n_paths (fun i -> mu.(i) +. ax.(i))
  in
  let sw = ref 0.0 in
  let sw2 = ref 0.0 in
  let swf = ref 0.0 in
  let sw2f = ref 0.0 in
  let hits = ref 0 in
  let remaining = ref samples in
  while !remaining > 0 do
    let b = Int.min block !remaining in
    let z = Linalg.Mat.init b m (fun _ _ -> Rng.gaussian rng) in
    (* d.(s).(i) = z_s . a_i ; u.(s) = z_s . x* *)
    let d = Linalg.Mat.mul_nt z a in
    let u = Linalg.Mat.apply z shift in
    for s = 0 to b - 1 do
      let w = exp (-.u.(s) -. half) in
      let fail = ref false in
      let i = ref 0 in
      while (not !fail) && !i < n_paths do
        if base.(!i) +. Linalg.Mat.get d s !i > t_cons then fail := true;
        incr i
      done;
      sw := !sw +. w;
      sw2 := !sw2 +. (w *. w);
      if !fail then begin
        incr hits;
        swf := !swf +. w;
        sw2f := !sw2f +. (w *. w)
      end
    done;
    remaining := !remaining - b
  done;
  let n = float_of_int samples in
  let p = !swf /. n in
  (* sample variance of the per-draw values w * 1{fail} *)
  let var = Float.max 0.0 ((!sw2f -. (n *. p *. p)) /. (n -. 1.0)) in
  let std_err = sqrt (var /. n) in
  let sn_p, sn_se, ess =
    if !sw > 0.0 then begin
      let sn_p = !swf /. !sw in
      (* delta method: Var(p~) ~ sum (w (f - p~))^2 / (sum w)^2 *)
      let num =
        Float.max 0.0
          ((!sw2f *. (1.0 -. (2.0 *. sn_p))) +. (sn_p *. sn_p *. !sw2))
      in
      (sn_p, sqrt num /. !sw, !sw *. !sw /. !sw2)
    end
    else (0.0, 0.0, 0.0)
  in
  {
    p_fail = p;
    sn_p_fail = sn_p;
    std_err;
    sn_std_err = sn_se;
    ess;
    samples;
    hits = !hits;
    shift_norm;
    dominant;
    t_cons;
  }

let run_estimate ?(block = 4096) ~a ~mu ~t_cons ~rng ~samples ~shifted () =
  check ~a ~mu ~t_cons;
  if samples < 2 then invalid_arg "Yield: need at least 2 samples";
  if block < 1 then invalid_arg "Yield: block must be >= 1";
  let dominant, _ = dominant_path ~a ~mu ~t_cons in
  if dominant < 0 then deterministic_estimate ~mu ~t_cons ~samples
  else begin
    let _, m = Linalg.Mat.dims a in
    let shift =
      if shifted then design_point ~a ~mu ~t_cons else Array.make m 0.0
    in
    estimate_with_shift ~block ~a ~mu ~t_cons ~rng ~samples ~shift ~dominant
  end

let importance ?block ~a ~mu ~t_cons ~rng ~samples () =
  run_estimate ?block ~a ~mu ~t_cons ~rng ~samples ~shifted:true ()

let brute_force ~a ~mu ~t_cons ~rng ~samples () =
  run_estimate ~a ~mu ~t_cons ~rng ~samples ~shifted:false ()

let union_bound ~a ~mu ~t_cons =
  check ~a ~mu ~t_cons;
  let n, _ = Linalg.Mat.dims a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let s = row_norm a i in
    if s > sigma_floor then
      acc := !acc +. Stats.Normal.cdf (-.(t_cons -. mu.(i)) /. s)
    else if mu.(i) > t_cons then acc := !acc +. 1.0
  done;
  Float.min 1.0 !acc

let calibrate_t_cons ~a ~mu ~target =
  if not (Float.is_finite target && target > 0.0 && target < 1.0) then
    invalid_arg "Yield.calibrate_t_cons: target must be in (0, 1)";
  let n, _ = Linalg.Mat.dims a in
  check ~a ~mu ~t_cons:0.0;
  (* bracket: at lo every path fails its marginal, at hi none does *)
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let s = Float.max (row_norm a i) sigma_floor in
    lo := Float.min !lo (mu.(i) -. (40.0 *. s));
    hi := Float.max !hi (mu.(i) +. (40.0 *. s))
  done;
  let lo = ref !lo and hi = ref !hi in
  (* union_bound is non-increasing in t: bisect to the target level *)
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if union_bound ~a ~mu ~t_cons:mid > target then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let sample_reduction e =
  let per_sample_var = e.std_err *. e.std_err *. float_of_int e.samples in
  if per_sample_var > 0.0 then e.p_fail *. (1.0 -. e.p_fail) /. per_sample_var
  else Float.nan

let agreement_z e1 e2 =
  let gap = Float.abs (e1.p_fail -. e2.p_fail) in
  let se = sqrt ((e1.std_err *. e1.std_err) +. (e2.std_err *. e2.std_err)) in
  if se > 0.0 then gap /. se
  else if gap > 0.0 then Float.infinity
  else 0.0
