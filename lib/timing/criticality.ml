type t = {
  probability : float array;
  samples : int;
  mean_critical_length : float;
}

(* One forward sweep + backtrace with the given per-gate delays; marks
   the gates of the critical path in [on_path] and returns its length. *)
let trace_critical nl delays ~arrival ~best_pred ~on_path =
  let num_inputs = Circuit.Netlist.num_inputs nl in
  Array.fill arrival 0 (Array.length arrival) 0.0;
  Array.fill best_pred 0 (Array.length best_pred) (-1);
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let best = ref 0.0 and pred = ref (-1) in
      Array.iter
        (fun code ->
          if arrival.(code) > !best then begin
            best := arrival.(code);
            pred := code
          end
          else if !pred = -1 then pred := code)
        g.fanin;
      arrival.(num_inputs + g.id) <- !best +. delays.(g.id);
      best_pred.(num_inputs + g.id) <- !pred)
    (Circuit.Netlist.gates nl);
  let sink = ref (-1) and sink_arr = ref neg_infinity in
  Array.iter
    (fun o ->
      let code = Circuit.Netlist.encode_signal nl o in
      if arrival.(code) > !sink_arr then begin
        sink_arr := arrival.(code);
        sink := code
      end)
    (Circuit.Netlist.outputs nl);
  let len = ref 0 in
  let node = ref !sink in
  while !node >= num_inputs do
    let gid = !node - num_inputs in
    on_path.(gid) <- true;
    incr len;
    node := best_pred.(!node)
  done;
  !len

let compute dm ~rng ~samples =
  if samples <= 0 then invalid_arg "Criticality.compute: samples must be positive";
  let nl = Delay_model.netlist dm in
  let n = Circuit.Netlist.num_gates nl in
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let counts = Array.make n 0 in
  let arrival = Array.make (num_inputs + n) 0.0 in
  let best_pred = Array.make (num_inputs + n) (-1) in
  let on_path = Array.make n false in
  let delays = Array.make n 0.0 in
  let total_len = ref 0 in
  let { Delay_model.ptr; slots; coefs } = Delay_model.terms dm in
  for _ = 1 to samples do
    (* one draw per slot: the Leff regions, then the Vt regions (level
       by level, cell by cell), then one per gate *)
    let draws = Rng.gaussian_vector rng (Delay_model.num_slots dm) in
    for g = 0 to n - 1 do
      let d = ref (Delay_model.nominal dm g) in
      for e = ptr.(g) to ptr.(g + 1) - 1 do
        d := !d +. (coefs.(e) *. draws.(slots.(e)))
      done;
      delays.(g) <- !d
    done;
    Array.fill on_path 0 n false;
    total_len := !total_len + trace_critical nl delays ~arrival ~best_pred ~on_path;
    for g = 0 to n - 1 do
      if on_path.(g) then counts.(g) <- counts.(g) + 1
    done
  done;
  {
    probability = Array.map (fun c -> float_of_int c /. float_of_int samples) counts;
    samples;
    mean_critical_length = float_of_int !total_len /. float_of_int samples;
  }

let ranking t =
  let order = Array.init (Array.length t.probability) (fun i -> i) in
  Array.sort (fun i j -> compare t.probability.(j) t.probability.(i)) order;
  order

let nominal_critical_gates dm =
  let nl = Delay_model.netlist dm in
  let n = Circuit.Netlist.num_gates nl in
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let arrival = Array.make (num_inputs + n) 0.0 in
  let best_pred = Array.make (num_inputs + n) (-1) in
  let on_path = Array.make n false in
  let delays = Array.init n (fun g -> Delay_model.nominal dm g) in
  ignore (trace_critical nl delays ~arrival ~best_pred ~on_path);
  let out = ref [] in
  for g = n - 1 downto 0 do
    if on_path.(g) then out := g :: !out
  done;
  Array.of_list !out
