type t = {
  indices : int array;
  predictor : Predictor.t;
  assignments : int array;
  cluster_sizes : int array;
  eps_r : float;
}

let normalize_rows a =
  let n, m = Linalg.Mat.dims a in
  let norms = Linalg.Mat.row_norms2 a in
  Linalg.Mat.init n m (fun i j ->
      if norms.(i) > 0.0 then Linalg.Mat.get a i j /. norms.(i) else 0.0)

let kmeans_rows ~rng ~k a =
  let n, m = Linalg.Mat.dims a in
  let k = max 1 (min k n) in
  let rows = normalize_rows a in
  (* k-means++-style seeding: first center uniform, then farthest-biased *)
  let centers = Linalg.Mat.create k m in
  let first = Rng.int rng n in
  Linalg.Mat.set_row centers 0 (Linalg.Mat.row rows first);
  for c = 1 to k - 1 do
    (* pick the row with the smallest max-similarity to existing centers *)
    let best_row = ref 0 in
    let best_score = ref infinity in
    for i = 0 to n - 1 do
      let sim = ref neg_infinity in
      for c' = 0 to c - 1 do
        let s = Linalg.Vec.dot (Linalg.Mat.row rows i) (Linalg.Mat.row centers c') in
        if s > !sim then sim := s
      done;
      (* small deterministic jitter breaks ties between identical rows *)
      let score = !sim +. (1e-9 *. float_of_int (i mod 97)) in
      if score < !best_score then begin
        best_score := score;
        best_row := i
      end
    done;
    Linalg.Mat.set_row centers c (Linalg.Mat.row rows !best_row)
  done;
  let assign = Array.make n 0 in
  let changed = ref true in
  let iter = ref 0 in
  while !changed && !iter < 30 do
    incr iter;
    changed := false;
    (* assignment step: nearest center by cosine similarity *)
    let sims = Linalg.Mat.mul_nt rows centers in
    for i = 0 to n - 1 do
      let best = ref 0 in
      for c = 1 to k - 1 do
        if Linalg.Mat.get sims i c > Linalg.Mat.get sims i !best then best := c
      done;
      if !best <> assign.(i) then begin
        assign.(i) <- !best;
        changed := true
      end
    done;
    (* update step: renormalized mean of member rows *)
    let sums = Linalg.Mat.create k m in
    let counts = Array.make k 0 in
    for i = 0 to n - 1 do
      let c = assign.(i) in
      counts.(c) <- counts.(c) + 1;
      for j = 0 to m - 1 do
        Linalg.Mat.set sums c j (Linalg.Mat.get sums c j +. Linalg.Mat.get rows i j)
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) = 0 then
        (* re-seed an empty cluster from a random row *)
        Linalg.Mat.set_row centers c (Linalg.Mat.row rows (Rng.int rng n))
      else begin
        let row = Linalg.Mat.row sums c in
        let nrm = Linalg.Vec.norm2 row in
        if nrm > 0.0 then Linalg.Mat.set_row centers c (Linalg.Vec.scale (1.0 /. nrm) row)
      end
    done
  done;
  assign

let select ?(config = Config.default) ?(seed = 1) ~k ~a ~mu ~eps ~t_cons () =
  Config.validate config;
  if k < 1 then invalid_arg "Cluster.select: k must be >= 1";
  if eps <= 0.0 then invalid_arg "Cluster.select: eps must be positive";
  if t_cons <= 0.0 then invalid_arg "Cluster.select: t_cons must be positive";
  let n, _ = Linalg.Mat.dims a in
  let rng = Rng.create seed in
  let assignments = kmeans_rows ~rng ~k a in
  let k_eff = 1 + Array.fold_left max 0 assignments in
  let cluster_sizes = Array.make k_eff 0 in
  Array.iter (fun c -> cluster_sizes.(c) <- cluster_sizes.(c) + 1) assignments;
  (* per-cluster Algorithm 1 *)
  let union = ref [] in
  for c = 0 to k_eff - 1 do
    if cluster_sizes.(c) > 0 then begin
      let members = ref [] in
      for i = n - 1 downto 0 do
        if assignments.(i) = c then members := i :: !members
      done;
      let members = Array.of_list !members in
      let a_c = Linalg.Mat.select_rows a members in
      let mu_c = Array.map (fun i -> mu.(i)) members in
      let sel = Select.approximate ~config ~a:a_c ~mu:mu_c ~eps ~t_cons () in
      Array.iter
        (fun local -> union := members.(local) :: !union)
        sel.Select.indices
    end
  done;
  let indices = Array.of_list (List.sort_uniq compare !union) in
  let predictor = Predictor.build ~a ~mu ~rep:indices in
  {
    indices;
    predictor;
    assignments;
    cluster_sizes;
    eps_r = Predictor.epsilon_r predictor ~kappa:config.Config.kappa ~t_cons;
  }
