type canonical = { mean : float; coeffs : float array; residual : float }

let sigma c =
  let acc = ref (c.residual *. c.residual) in
  Array.iter (fun v -> acc := !acc +. (v *. v)) c.coeffs;
  sqrt !acc

let add_delay t ~mean ~coeffs ~residual =
  {
    mean = t.mean +. mean;
    coeffs = Array.init (Array.length t.coeffs) (fun i -> t.coeffs.(i) +. coeffs.(i));
    residual = sqrt ((t.residual *. t.residual) +. (residual *. residual));
  }

(* Clark's two-moment max approximation. The correlated coefficients are
   blended by the tightness probability; whatever variance the blend
   cannot express goes to the independent residual. *)
let clark_max a b =
  let var_a = sigma a ** 2.0 in
  let var_b = sigma b ** 2.0 in
  let cov = ref 0.0 in
  for i = 0 to Array.length a.coeffs - 1 do
    cov := !cov +. (a.coeffs.(i) *. b.coeffs.(i))
  done;
  let theta2 = var_a +. var_b -. (2.0 *. !cov) in
  (* relative threshold: cancellation noise on identical forms must not
     masquerade as a genuine max *)
  if theta2 <= 1e-12 *. (var_a +. var_b) +. 1e-300 then
    if a.mean >= b.mean then a else b
  else begin
    let theta = sqrt theta2 in
    let alpha = (a.mean -. b.mean) /. theta in
    let p = Stats.Normal.cdf alpha in
    let phi = Stats.Normal.pdf alpha in
    let mean = (a.mean *. p) +. (b.mean *. (1.0 -. p)) +. (theta *. phi) in
    let second =
      (((a.mean *. a.mean) +. var_a) *. p)
      +. (((b.mean *. b.mean) +. var_b) *. (1.0 -. p))
      +. ((a.mean +. b.mean) *. theta *. phi)
    in
    let variance = Float.max 0.0 (second -. (mean *. mean)) in
    let coeffs =
      Array.init (Array.length a.coeffs) (fun i ->
          (p *. a.coeffs.(i)) +. ((1.0 -. p) *. b.coeffs.(i)))
    in
    let corr_var = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 coeffs in
    let residual = sqrt (Float.max 0.0 (variance -. corr_var)) in
    { mean; coeffs; residual }
  end

type t = {
  circuit_delay : canonical;
  node_arrivals : canonical array;
  basis : Variation.var_key array;
}

let analyze dm =
  let nl = Delay_model.netlist dm in
  let model = Delay_model.model dm in
  (* correlated basis: every region variable of the model, both params;
     their slots are the first ones, so a slot is its basis index *)
  let nb = 2 * Variation.region_count model in
  let basis = Array.init nb (Variation.key_of_slot model) in
  let { Delay_model.ptr; slots; coefs } = Delay_model.terms dm in
  let zero = { mean = 0.0; coeffs = Array.make nb 0.0; residual = 0.0 } in
  let gate_canonical g =
    let coeffs = Array.make nb 0.0 in
    let residual = ref 0.0 in
    for e = ptr.(g) to ptr.(g + 1) - 1 do
      let s = slots.(e) and c = coefs.(e) in
      if s < nb then coeffs.(s) <- c
      else residual := sqrt ((!residual *. !residual) +. (c *. c))
    done;
    (Delay_model.nominal dm g, coeffs, !residual)
  in
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let n_nodes = num_inputs + Circuit.Netlist.num_gates nl in
  let arrivals = Array.make n_nodes zero in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let amax =
        Array.fold_left
          (fun acc code ->
            match acc with
            | None -> Some arrivals.(code)
            | Some best -> Some (clark_max best arrivals.(code)))
          None g.fanin
      in
      let amax = Option.value ~default:zero amax in
      let mean, coeffs, residual = gate_canonical g.id in
      arrivals.(num_inputs + g.id) <- add_delay amax ~mean ~coeffs ~residual)
    (Circuit.Netlist.gates nl);
  let circuit_delay =
    Array.fold_left
      (fun acc o ->
        let arr = arrivals.(Circuit.Netlist.encode_signal nl o) in
        match acc with None -> Some arr | Some best -> Some (clark_max best arr))
      None (Circuit.Netlist.outputs nl)
    |> Option.value ~default:zero
  in
  { circuit_delay; node_arrivals = arrivals; basis }

let yield_at t x =
  Stats.Normal.cdf_of
    { Stats.Normal.mean = t.circuit_delay.mean; std = sigma t.circuit_delay }
    x

let quantile t p =
  t.circuit_delay.mean +. (sigma t.circuit_delay *. Stats.Normal.quantile p)
