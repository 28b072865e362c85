type gate = {
  id : int;
  name : string;
  cell : Cell.kind;
  fanin : int array;
  x : float;
  y : float;
}

type signal = Pi of int | Gate_out of int

type t = {
  name : string;
  num_inputs : int;
  gates : gate array;
  outputs : signal array;
  fanout_counts : int array;       (* per gate: gate sinks + PO sinks *)
}

let signal_code ~num_inputs = function
  | Pi i -> i
  | Gate_out g -> num_inputs + g

let build ~name ~num_inputs ~gates ~outputs =
  if num_inputs < 0 then invalid_arg "Netlist.build: negative input count";
  if outputs = [] then invalid_arg "Netlist.build: no outputs";
  let n = List.length gates in
  let seen_names = Hashtbl.create (n + num_inputs) in
  let check_signal ctx limit = function
    | Pi i ->
      if i < 0 || i >= num_inputs then
        invalid_arg (Printf.sprintf "Netlist.build: %s references bad input %d" ctx i)
    | Gate_out g ->
      if g < 0 || g >= limit then
        invalid_arg
          (Printf.sprintf "Netlist.build: %s references gate %d before definition" ctx g)
  in
  let gate_array =
    Array.of_list
      (List.mapi
         (fun id (gname, cell, fanin, (x, y)) ->
           if Hashtbl.mem seen_names gname then
             invalid_arg (Printf.sprintf "Netlist.build: duplicate gate name %s" gname);
           Hashtbl.add seen_names gname ();
           if Array.length fanin <> Cell.arity cell then
             invalid_arg
               (Printf.sprintf "Netlist.build: gate %s has %d fanins, cell %s wants %d"
                  gname (Array.length fanin) (Cell.name cell) (Cell.arity cell));
           if x < 0.0 || x > 1.0 || y < 0.0 || y > 1.0 then
             invalid_arg (Printf.sprintf "Netlist.build: gate %s placed off-die" gname);
           Array.iter (check_signal gname id) fanin;
           let fanin = Array.map (signal_code ~num_inputs) fanin in
           { id; name = gname; cell; fanin; x; y })
         gates)
  in
  List.iter (check_signal "output" n) outputs;
  let fanout_counts = Array.make n 0 in
  Array.iter
    (fun g ->
      Array.iter
        (fun code ->
          if code >= num_inputs then begin
            let src = code - num_inputs in
            fanout_counts.(src) <- fanout_counts.(src) + 1
          end)
        g.fanin)
    gate_array;
  List.iter
    (function
      | Pi _ -> ()
      | Gate_out g -> fanout_counts.(g) <- fanout_counts.(g) + 1)
    outputs;
  Array.iteri
    (fun id c ->
      if c = 0 then
        invalid_arg
          (Printf.sprintf "Netlist.build: gate %s (id %d) drives nothing"
             gate_array.(id).name id))
    fanout_counts;
  {
    name;
    num_inputs;
    gates = gate_array;
    outputs = Array.of_list outputs;
    fanout_counts;
  }

let name (t : t) = t.name

let num_inputs t = t.num_inputs

let num_gates t = Array.length t.gates

let gate t i = t.gates.(i)

let gates t = t.gates

let outputs t = t.outputs

let fanout_count t g = t.fanout_counts.(g)

let encode_signal t s = signal_code ~num_inputs:t.num_inputs s

let decode_signal t code =
  if code < t.num_inputs then Pi code else Gate_out (code - t.num_inputs)

let signal_name t = function
  | Pi i -> Printf.sprintf "pi%d" i
  | Gate_out g -> t.gates.(g).name

let depth t =
  let d = Array.make (Array.length t.gates) 1 in
  Array.iter
    (fun g ->
      let dmax = ref 0 in
      Array.iter
        (fun code ->
          if code >= t.num_inputs then begin
            let src = code - t.num_inputs in
            if d.(src) > !dmax then dmax := d.(src)
          end)
        g.fanin;
      d.(g.id) <- !dmax + 1)
    t.gates;
  Array.fold_left max 0 d

let stats (t : t) =
  Printf.sprintf "%s: %d PIs, %d gates, %d POs, depth %d" t.name t.num_inputs
    (num_gates t) (Array.length t.outputs) (depth t)
