type problem = {
  grad_f : Linalg.Mat.t -> Linalg.Mat.t;
  prox_g : Linalg.Mat.t -> float -> Linalg.Mat.t;
  objective : Linalg.Mat.t -> float;
  lipschitz : float;
}

type stop = { max_iter : int; rel_tol : float }

let default_stop = { max_iter = 500; rel_tol = 1e-7 }

type report = {
  solution : Linalg.Mat.t;
  iterations : int;
  objective_value : float;
  converged : bool;
}

let solve ?(stop = default_stop) p ~init =
  if p.lipschitz <= 0.0 then invalid_arg "Fista.solve: lipschitz must be positive";
  let step = 1.0 /. p.lipschitz in
  let x = ref (Linalg.Mat.copy init) in
  let y = ref (Linalg.Mat.copy init) in
  let tk = ref 1.0 in
  let fx = ref (p.objective !x) in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to stop.max_iter do
       iters := it;
       let g = p.grad_f !y in
       (* fused y - step*g: same fp ops as sub (scale step g), one pass *)
       let candidate = p.prox_g (Linalg.Mat.sub_scaled !y step g) step in
       let f_candidate = p.objective candidate in
       (* function-value restart: if the objective went up, restart the
          momentum from the last good iterate *)
       if f_candidate > !fx +. 1e-15 then begin
         tk := 1.0;
         y := Linalg.Mat.copy !x
       end
       else begin
         let t_next = (1.0 +. sqrt (1.0 +. (4.0 *. !tk *. !tk))) /. 2.0 in
         let beta = (!tk -. 1.0) /. t_next in
         let momentum =
           (* candidate + beta*(candidate - x), two allocations not three *)
           let m = Linalg.Mat.copy candidate in
           Linalg.Mat.axpy ~alpha:beta (Linalg.Mat.sub candidate !x) m;
           m
         in
         let rel = Float.abs (!fx -. f_candidate) /. Float.max 1e-12 (Float.abs !fx) in
         x := candidate;
         fx := f_candidate;
         y := momentum;
         tk := t_next;
         if rel < stop.rel_tol then begin
           converged := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  { solution = !x; iterations = !iters; objective_value = !fx; converged = !converged }

let power_iteration_norm m =
  let n, n2 = Linalg.Mat.dims m in
  if n <> n2 then invalid_arg "Fista.power_iteration_norm: matrix not square";
  if n = 0 then 0.0
  else begin
    let v = ref (Array.init n (fun i -> 1.0 +. (0.01 *. float_of_int (i mod 7)))) in
    let lambda = ref 0.0 in
    for _ = 1 to 60 do
      let w = Linalg.Mat.apply m !v in
      let nw = Linalg.Vec.norm2 w in
      if nw > 0.0 then begin
        lambda := nw /. Float.max 1e-300 (Linalg.Vec.norm2 !v);
        v := Linalg.Vec.scale (1.0 /. nw) w
      end
    done;
    (* Rayleigh quotient for the final estimate *)
    let w = Linalg.Mat.apply m !v in
    let r = Linalg.Vec.dot !v w /. Float.max 1e-300 (Linalg.Vec.dot !v !v) in
    Float.max r !lambda
  end
