type t = {
  pool : Paths.t;
  x : Linalg.Mat.t;
  mutable d_paths : Linalg.Mat.t option;
  mutable d_segments : Linalg.Mat.t option;
}

let sample rng pool ~n =
  if n <= 0 then invalid_arg "Monte_carlo.sample: n must be positive";
  let m = Paths.num_vars pool in
  let x = Linalg.Mat.init n m (fun _ _ -> Rng.gaussian rng) in
  { pool; x; d_paths = None; d_segments = None }

(* [mu + X M^T] for a sensitivity matrix [M]. [M] is mostly exact zeros
   (a path touches a few of the model's variables), so the product runs
   through CSR at the cost of its nonzeros; on finite draws it is
   bit-identical to the dense [Mat.mul_nt] (see Sparse). The product is
   fresh, so the mean shift lands in place. *)
let shifted_product x m mu =
  let d = Linalg.Sparse.mul_dense_nt x (Linalg.Sparse.of_dense m) in
  Linalg.Mat.add_row_vec_into d mu;
  d

let path_delays t =
  match t.d_paths with
  | Some d -> d
  | None ->
    let d = shifted_product t.x (Paths.a_mat t.pool) (Paths.mu_paths t.pool) in
    t.d_paths <- Some d;
    d

let segment_delays t =
  match t.d_segments with
  | Some d -> d
  | None ->
    let d = shifted_product t.x (Paths.sigma_mat t.pool) (Paths.mu_segments t.pool) in
    t.d_segments <- Some d;
    d

(* [Float.max] with the strict cases inline: ties, where the sign of a
   zero decides, and NaNs go to [Float.max] itself, so the result is
   bit-identical to it. *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

let circuit_yield dm ~t_cons ~rng ~samples =
  if samples <= 0 then invalid_arg "Monte_carlo.circuit_yield: samples must be positive";
  let nl = Delay_model.netlist dm in
  let levels = (Delay_model.model dm).Variation.levels in
  let gates = Circuit.Netlist.gates nl in
  let n_gates = Circuit.Netlist.num_gates nl in
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let n_signals = num_inputs + n_gates in
  (* One sample's draws form a flat vector, in the order the estimate
     has always consumed the stream: Leff regions, then Vt regions (each
     level by level, cell by cell), then one random variable per gate. *)
  let level_base = Array.make (levels + 1) 0 in
  for l = 0 to levels - 1 do
    level_base.(l + 1) <- level_base.(l) + Variation.regions_at_level l
  done;
  let per_param = level_base.(levels) in
  let nd = (2 * per_param) + n_gates in
  let slot = function
    | Variation.Region { param; level; cell } ->
      if level < 0 || level >= levels || cell < 0 || cell >= Variation.regions_at_level level
      then invalid_arg "Monte_carlo.circuit_yield: region outside the model";
      let p = match param with Variation.Leff -> 0 | Variation.Vt -> 1 in
      (p * per_param) + level_base.(level) + cell
    | Variation.Gate_random gid ->
      if gid < 0 || gid >= n_gates then
        invalid_arg "Monte_carlo.circuit_yield: gate outside the netlist";
      (2 * per_param) + gid
  in
  (* The sweep, compiled once: gate [k]'s sensitivity terms are entries
     [ptr.(k), ptr.(k + 1)) of [slots]/[coefs], in list order, so each
     sample's delays accumulate in the sensitivity list's order. *)
  let sens =
    Array.map (fun (g : Circuit.Netlist.gate) -> Delay_model.sensitivities dm g.id) gates
  in
  let ptr = Array.make (Array.length gates + 1) 0 in
  Array.iteri (fun k l -> ptr.(k + 1) <- ptr.(k) + List.length l) sens;
  let slots = Array.make ptr.(Array.length gates) 0 in
  let coefs = Array.make ptr.(Array.length gates) 0.0 in
  Array.iteri
    (fun k l ->
      List.iteri
        (fun e (key, c) ->
          slots.(ptr.(k) + e) <- slot key;
          coefs.(ptr.(k) + e) <- c)
        l)
    sens;
  let nominal =
    Array.map (fun (g : Circuit.Netlist.gate) -> Delay_model.nominal dm g.id) gates
  in
  let fanin = Array.map (fun (g : Circuit.Netlist.gate) -> g.fanin) gates in
  let target = Array.map (fun (g : Circuit.Netlist.gate) -> num_inputs + g.id) gates in
  let outputs = Array.map (Circuit.Netlist.encode_signal nl) (Circuit.Netlist.outputs nl) in
  let sweep draws base arrival =
    Array.fill arrival 0 n_signals 0.0;
    for k = 0 to Array.length gates - 1 do
      let d = ref nominal.(k) in
      for e = ptr.(k) to ptr.(k + 1) - 1 do
        d := !d +. (coefs.(e) *. draws.(base + slots.(e)))
      done;
      let fi = fanin.(k) in
      let amax = ref 0.0 in
      for j = 0 to Array.length fi - 1 do
        amax := fmax !amax arrival.(fi.(j))
      done;
      arrival.(target.(k)) <- !amax +. !d
    done;
    let dmax = ref 0.0 in
    for j = 0 to Array.length outputs - 1 do
      dmax := fmax !dmax arrival.(outputs.(j))
    done;
    !dmax <= t_cons
  in
  (* Randomness is drawn sample-by-sample from the single [rng] stream,
     serially, one block of samples at a time (bounding memory on big
     netlists); only the per-sample longest-path sweeps run on the
     domain pool. Execution order therefore never touches the draw
     order: the yield is bit-identical at any PATHSEL_DOMAINS, including
     the historical serial result. *)
  let block = min samples 64 in
  let draws = Array.make (block * nd) 0.0 in
  let passed = Array.make block false in
  let pass = ref 0 in
  let remaining = ref samples in
  while !remaining > 0 do
    let b = min block !remaining in
    for i = 0 to (b * nd) - 1 do
      draws.(i) <- Rng.gaussian rng
    done;
    Par.Pool.parallel_chunks ~grain:2 0 b (fun lo hi ->
        let arrival = Array.make n_signals 0.0 in
        for s = lo to hi - 1 do
          passed.(s) <- sweep draws (s * nd) arrival
        done);
    for s = 0 to b - 1 do
      if passed.(s) then incr pass
    done;
    remaining := !remaining - b
  done;
  float_of_int !pass /. float_of_int samples
