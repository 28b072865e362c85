type terms = { ptr : int array; slots : int array; coefs : float array }

type t = {
  netlist : Circuit.Netlist.t;
  model : Variation.model;
  nominal : float array;
  terms : terms;
  sigmas : float array;
}

let gate_sensitivities model (g : Circuit.Netlist.gate) d0 =
  let correlated param strength =
    let sigma_p = strength *. d0 in
    List.init model.Variation.levels (fun level ->
        let w = model.Variation.level_weights.(level) in
        let cell = Variation.cell_of_position ~level g.Circuit.Netlist.x g.Circuit.Netlist.y in
        (Variation.Region { param; level; cell }, sqrt w *. sigma_p))
  in
  let leff = correlated Variation.Leff (Circuit.Cell.leff_sensitivity g.Circuit.Netlist.cell) in
  let vt = correlated Variation.Vt (Circuit.Cell.vt_sensitivity g.Circuit.Netlist.cell) in
  let corr_var =
    List.fold_left (fun acc (_, c) -> acc +. (c *. c)) 0.0 (leff @ vt)
  in
  (* random_share of TOTAL variance: sigma_r^2 = share/(1-share) * corr_var *)
  let share = model.Variation.random_share in
  let sigma_r =
    model.Variation.random_boost *. sqrt (share /. (1.0 -. share) *. corr_var)
  in
  let rand =
    if sigma_r > 0.0 then [ (Variation.Gate_random g.Circuit.Netlist.id, sigma_r) ] else []
  in
  leff @ vt @ rand

(* Each gate's sensitivity list, compiled once to slots in list order:
   every consumer sums a gate's terms in that order. *)
let build_generic netlist model ~nominal_of =
  let gates = Circuit.Netlist.gates netlist in
  let n = Array.length gates in
  let nominal = Array.map nominal_of gates in
  let sens = Array.map2 (gate_sensitivities model) gates nominal in
  let ptr = Array.make (n + 1) 0 in
  Array.iteri (fun g l -> ptr.(g + 1) <- ptr.(g) + List.length l) sens;
  let slots = Array.make ptr.(n) 0 in
  let coefs = Array.make ptr.(n) 0.0 in
  Array.iteri
    (fun g l ->
      List.iteri
        (fun e (key, c) ->
          slots.(ptr.(g) + e) <- Variation.slot model key;
          coefs.(ptr.(g) + e) <- c)
        l)
    sens;
  let sigmas =
    Array.map (fun l -> sqrt (List.fold_left (fun acc (_, c) -> acc +. (c *. c)) 0.0 l)) sens
  in
  { netlist; model; nominal; terms = { ptr; slots; coefs }; sigmas }

let build netlist model =
  let nominal_of (g : Circuit.Netlist.gate) =
    let fanout = Circuit.Netlist.fanout_count netlist g.id in
    Circuit.Cell.delay g.cell ~fanout
  in
  build_generic netlist model ~nominal_of

let build_with_nominals netlist model nominals =
  if Array.length nominals <> Circuit.Netlist.num_gates netlist then
    invalid_arg "Delay_model.build_with_nominals: length mismatch";
  Array.iter
    (fun d ->
      if d <= 0.0 then
        invalid_arg "Delay_model.build_with_nominals: non-positive delay")
    nominals;
  build_generic netlist model
    ~nominal_of:(fun (g : Circuit.Netlist.gate) -> nominals.(g.id))

let netlist t = t.netlist

let model t = t.model

let nominal t g = t.nominal.(g)

let num_slots t = Variation.num_slots t.model ~gates:(Array.length t.nominal)

let terms t = t.terms

let sigma t g = t.sigmas.(g)

let nominal_critical_delay t =
  let nl = t.netlist in
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let n = Circuit.Netlist.num_gates nl in
  (* arrival time per signal code; gates are in topological order *)
  let arrival = Array.make (num_inputs + n) 0.0 in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let amax = Array.fold_left (fun acc code -> Float.max acc arrival.(code)) 0.0 g.fanin in
      arrival.(num_inputs + g.id) <- amax +. t.nominal.(g.id))
    (Circuit.Netlist.gates nl);
  Array.fold_left
    (fun acc o -> Float.max acc arrival.(Circuit.Netlist.encode_signal nl o))
    0.0 (Circuit.Netlist.outputs nl)
