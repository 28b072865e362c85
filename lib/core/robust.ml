(* The robust view needs nothing beyond the base predictor: its Gram
   and cross blocks are the ones the Theorem-2 solve already formed. *)
type t = Predictor.t

let of_predictor p = p

(* ------------------------------------------------------------------ *)
(* Outlier / missing-data screen *)

type screen_report = {
  mask : bool array array;
  missing : int;
  outliers : int;
  clean : bool;
}

(* 6.0 robust sigmas: on clean Gaussian data the expected false-reject
   rate is ~2e-9 per entry, so a fault-free matrix screens clean. *)
let mad_threshold = 6.0

let screen t ~measured =
  let dies, r = Linalg.Mat.dims measured in
  if r <> Array.length (Predictor.mu_rep t) then
    invalid_arg "Robust.screen: measurement width mismatch";
  let mask = Array.init dies (fun _ -> Array.make r true) in
  let missing = ref 0 in
  let outliers = ref 0 in
  for j = 0 to r - 1 do
    let finite = ref [] in
    for i = dies - 1 downto 0 do
      let v = Linalg.Mat.get measured i j in
      if Float.is_finite v then finite := v :: !finite
      else begin
        mask.(i).(j) <- false;
        incr missing
      end
    done;
    let finite = Array.of_list !finite in
    (* median-absolute-deviation screen across dies: a path's delay is
       near-Gaussian over the population, so |x - med| > k * 1.4826 MAD
       flags gross errors (stuck codes, glitches) without being pulled
       by them the way mean/stddev would. Degenerate columns (MAD = 0,
       e.g. coarse quantization collapsing most codes) are left alone:
       there is no robust scale to screen against. *)
    if Array.length finite >= 4 then begin
      let med = Stats.Descriptive.quantile finite 0.5 in
      let absdev = Array.map (fun x -> Float.abs (x -. med)) finite in
      let mad = Stats.Descriptive.quantile absdev 0.5 in
      let scale = 1.4826 *. mad in
      if scale > 0.0 then
        for i = 0 to dies - 1 do
          if mask.(i).(j) then begin
            let v = Linalg.Mat.get measured i j in
            if Float.abs (v -. med) > mad_threshold *. scale then begin
              mask.(i).(j) <- false;
              incr outliers
            end
          end
        done
    end
  done;
  { mask; missing = !missing; outliers = !outliers;
    clean = !missing = 0 && !outliers = 0 }

(* ------------------------------------------------------------------ *)
(* Reduced-system predictor *)

type prediction = {
  predicted : Linalg.Mat.t;
  screened : screen_report;
  resolves : int;
  ridge_fallbacks : int;
  dead_dies : int;
}

let default_cond_limit = 1e10

(* Condition estimate from the Cholesky pivots: cond(G_S) ~ (max l_ii /
   min l_ii)^2. Cheap (the factor is needed for the solve anyway) and
   conservative enough to gate the ridge fallback. *)
let try_factor ~cond_limit g =
  match Linalg.Cholesky.factor g with
  | exception Linalg.Cholesky.Not_positive_definite -> None
  | l ->
    let k, _ = Linalg.Mat.dims l in
    let dmin = ref Float.infinity and dmax = ref 0.0 in
    for i = 0 to k - 1 do
      let d = Linalg.Mat.get l i i in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d
    done;
    let ratio = !dmax /. Float.max 1e-300 !dmin in
    if ratio *. ratio > cond_limit then None else Some l

(* Solve G_S W_S^T = C_S for the reduced Theorem-2 weights. The full
   Gram and cross products are cached in [t], so a degraded die costs
   one |S| x |S| Cholesky solve — no refactorization of A. *)
let solve_pattern t ~cond_limit s_idx =
  let gram = Predictor.gram t and cross = Predictor.cross t in
  let k = Array.length s_idx in
  let ncols = snd (Linalg.Mat.dims cross) in
  let g = Linalg.Mat.init k k (fun i j -> Linalg.Mat.get gram s_idx.(i) s_idx.(j)) in
  let c = Linalg.Mat.init k ncols (fun i j -> Linalg.Mat.get cross s_idx.(i) j) in
  let solve_with l =
    let w = Linalg.Mat.create ncols k in
    for j = 0 to ncols - 1 do
      let x = Linalg.Cholesky.solve l (Linalg.Mat.col c j) in
      for i = 0 to k - 1 do
        Linalg.Mat.set w j i x.(i)
      done
    done;
    w
  in
  match try_factor ~cond_limit g with
  | Some l -> (solve_with l, false)
  | None ->
    (* ill-posed reduced system: a Tikhonov ridge of 1e-6 times the
       Gram's mean diagonal restores definiteness at a small bias cost *)
    let trace = ref 0.0 in
    for i = 0 to k - 1 do
      trace := !trace +. Linalg.Mat.get g i i
    done;
    let lambda = Float.max 1e-300 (1e-6 *. !trace /. float_of_int k) in
    let g' = Linalg.Mat.init k k (fun i j ->
        Linalg.Mat.get g i j +. if i = j then lambda else 0.0)
    in
    (match Linalg.Cholesky.factor g' with
     | l -> (solve_with l, true)
     | exception Linalg.Cholesky.Not_positive_definite ->
       (* pathological even after the ridge: SVD pseudo-inverse *)
       (Linalg.Mat.transpose (Linalg.Pinv.solve_gram g' c), true))

let pattern_key mask_row =
  let b = Bytes.create (Array.length mask_row) in
  Array.iteri (fun j m -> Bytes.set b j (if m then '1' else '0')) mask_row;
  Bytes.unsafe_to_string b

let predict_all ?(cond_limit = default_cond_limit) t ~measured =
  if cond_limit <= 1.0 then invalid_arg "Robust.predict_all: cond_limit <= 1";
  let screened = screen t ~measured in
  let dies, r = Linalg.Mat.dims measured in
  let mu_rep = Predictor.mu_rep t and mu_rem = Predictor.mu_rem t in
  let nrem = Array.length mu_rem in
  if screened.clean then
    (* every entry usable: the baseline Theorem-2 predictor applies
       verbatim (bit-for-bit identical to Evaluate.predictor_metrics) *)
    { predicted = Predictor.predict_all t ~measured; screened;
      resolves = 0; ridge_fallbacks = 0; dead_dies = 0 }
  else begin
    let cache : (string, Linalg.Mat.t * bool) Hashtbl.t = Hashtbl.create 16 in
    let full_key = pattern_key (Array.make r true) in
    Hashtbl.replace cache full_key (Predictor.weights t, false);
    let resolves = ref 0 in
    let ridge_fallbacks = ref 0 in
    let dead_dies = ref 0 in
    let predicted = Linalg.Mat.create dies nrem in
    for i = 0 to dies - 1 do
      let mask_row = screened.mask.(i) in
      let s_idx =
        let out = ref [] in
        for j = r - 1 downto 0 do
          if mask_row.(j) then out := j :: !out
        done;
        Array.of_list !out
      in
      if Array.length s_idx = 0 then begin
        (* nothing measured on this die: fall back to the population
           mean of every remaining path *)
        incr dead_dies;
        for j = 0 to nrem - 1 do
          Linalg.Mat.set predicted i j mu_rem.(j)
        done
      end
      else begin
        let key = pattern_key mask_row in
        let w, _ =
          match Hashtbl.find_opt cache key with
          | Some v -> v
          | None ->
            incr resolves;
            let v = solve_pattern t ~cond_limit s_idx in
            if snd v then incr ridge_fallbacks;
            Hashtbl.replace cache key v;
            v
        in
        let centered =
          Array.map (fun j -> Linalg.Mat.get measured i j -. mu_rep.(j)) s_idx
        in
        let row = Linalg.Mat.apply w centered in
        for j = 0 to nrem - 1 do
          Linalg.Mat.set predicted i j (mu_rem.(j) +. row.(j))
        done
      end
    done;
    { predicted; screened; resolves = !resolves;
      ridge_fallbacks = !ridge_fallbacks; dead_dies = !dead_dies }
  end

let metrics pr ~truth = Evaluate.of_predictions ~truth ~predicted:pr.predicted
