type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Floats of float array
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.12g" f
    else "null"
  | Floats a -> to_string (List (Array.to_list (Array.map (fun f -> Float f) a)))
  | String s -> Printf.sprintf "\"%s\"" (escape s)
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (to_string v)) fields)
    ^ "}"

let gate_names pool gates =
  let nl = Timing.Delay_model.netlist (Timing.Paths.delay_model pool) in
  gates |> Array.to_list
  |> List.map (fun g -> String ((Circuit.Netlist.gate nl g).Circuit.Netlist.name))

let path_entry pool i =
  let p = Timing.Paths.path pool i in
  Obj
    [
      ("index", Int i);
      ("nominal_ps", Float p.Timing.Path_extract.mu);
      ("sigma_ps", Float p.Timing.Path_extract.sigma);
      ("gates", List (gate_names pool p.Timing.Path_extract.gates));
    ]

let selection_report ~pool ~t_cons ~eps sel =
  Obj
    [
      ("kind", String "path-selection");
      ("t_cons_ps", Float t_cons);
      ("eps", Float eps);
      ("num_target_paths", Int (Timing.Paths.num_paths pool));
      ("rank", Int sel.Select.rank);
      ("effective_rank", Int sel.Select.effective_rank);
      ("achieved_eps_r", Float sel.Select.eps_r);
      ( "representative_paths",
        List (Array.to_list (Array.map (path_entry pool) sel.Select.indices)) );
      ( "guard_band_fractions",
        List (Array.to_list (Array.map (fun e -> Float e) sel.Select.per_path_eps)) );
    ]

let segment_entry pool s =
  let gates = Timing.Paths.segment_gates pool s in
  let mu = Timing.Paths.mu_segments pool in
  Obj
    [
      ("index", Int s);
      ("nominal_ps", Float mu.(s));
      ("gates", List (gate_names pool gates));
    ]

let hybrid_report ~pool ~t_cons ~eps h =
  Obj
    [
      ("kind", String "hybrid-selection");
      ("t_cons_ps", Float t_cons);
      ("eps", Float eps);
      ("eps_prime", Float h.Hybrid.eps_prime);
      ("num_target_paths", Int (Timing.Paths.num_paths pool));
      ("rank_r1", Int h.Hybrid.r1);
      ("total_measurements", Int (Hybrid.total_measurements h));
      ( "measured_paths",
        List (Array.to_list (Array.map (path_entry pool) h.Hybrid.path_indices)) );
      ( "test_structure_segments",
        List (Array.to_list (Array.map (segment_entry pool) h.Hybrid.segment_indices)) );
      ("feasible", Bool h.Hybrid.feasible);
    ]

let write_file path json =
  let oc = open_out path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc
