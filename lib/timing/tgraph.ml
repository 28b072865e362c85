type arc = { src : int; gate : int; dst : int }

type t = {
  out_arcs : arc list array;
  po : bool array;
  pis : int array;
}

let build nl =
  let num_inputs = Circuit.Netlist.num_inputs nl in
  let n_nodes = num_inputs + Circuit.Netlist.num_gates nl in
  let out_arcs = Array.make n_nodes [] in
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let dst = num_inputs + g.id in
      Array.iter
        (fun src ->
          (* a gate with two pins tied to the same net contributes ONE
             timing arc: paths are gate sequences, so duplicate arcs
             would only multiply the traversal, not the paths *)
          if not (Hashtbl.mem seen (src, g.id)) then begin
            Hashtbl.add seen (src, g.id) ();
            out_arcs.(src) <- { src; gate = g.id; dst } :: out_arcs.(src)
          end)
        g.fanin)
    (Circuit.Netlist.gates nl);
  (* keep deterministic order: reverse the accumulated lists *)
  Array.iteri (fun i l -> out_arcs.(i) <- List.rev l) out_arcs;
  let po = Array.make n_nodes false in
  Array.iter
    (fun o -> po.(Circuit.Netlist.encode_signal nl o) <- true)
    (Circuit.Netlist.outputs nl);
  { out_arcs; po; pis = Array.init num_inputs (fun i -> i) }

let num_nodes t = Array.length t.out_arcs

let arcs_from t v = t.out_arcs.(v)

let is_po t v = t.po.(v)

let pi_codes t = t.pis

let rest_bounds t ~gate_value =
  let n = num_nodes t in
  let rest = Array.make n neg_infinity in
  (* signal codes are already topological (PIs, then gates in order);
     sweep backwards *)
  for v = n - 1 downto 0 do
    if t.po.(v) then rest.(v) <- 0.0;
    List.iter
      (fun a ->
        if rest.(a.dst) > neg_infinity then
          rest.(v) <- Float.max rest.(v) (gate_value a.gate +. rest.(a.dst)))
      t.out_arcs.(v)
  done;
  rest
