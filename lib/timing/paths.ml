type t = {
  dm : Delay_model.t;
  paths : Path_extract.path array;
  segments : int array array;
  seg_of_path : int array array;
  vars : Variation.var_key array;
  g_mat : Linalg.Mat.t;
  sigma_mat : Linalg.Mat.t;
  a_mat : Linalg.Mat.t;
  mu_paths : Linalg.Vec.t;
  mu_segments : Linalg.Vec.t;
  covered_gates : int;
  covered_regions : int;
}

(* Split every path's gate list into maximal chains of the path-union
   graph: a chain may continue across (a, b) only when a's only successor
   is b and b's only predecessor is a, among all target paths (path
   endpoints count as virtual source/sink edges). *)
let extract_segments paths =
  let in_deg = Hashtbl.create 1024 in
  let out_deg = Hashtbl.create 1024 in
  let edges = Hashtbl.create 4096 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let src_marked = Hashtbl.create 256 in
  let snk_marked = Hashtbl.create 256 in
  Array.iter
    (fun (p : Path_extract.path) ->
      let g = p.gates in
      let len = Array.length g in
      if not (Hashtbl.mem src_marked g.(0)) then begin
        Hashtbl.add src_marked g.(0) ();
        bump in_deg g.(0)
      end;
      if not (Hashtbl.mem snk_marked g.(len - 1)) then begin
        Hashtbl.add snk_marked g.(len - 1) ();
        bump out_deg g.(len - 1)
      end;
      for i = 0 to len - 2 do
        let e = (g.(i), g.(i + 1)) in
        if not (Hashtbl.mem edges e) then begin
          Hashtbl.add edges e ();
          bump out_deg g.(i);
          bump in_deg g.(i + 1)
        end
      done)
    paths;
  let deg tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let seg_table = Hashtbl.create 1024 in
  let segments = ref [] in
  let n_segs = ref 0 in
  let seg_id gates_list =
    let key = Array.of_list (List.rev gates_list) in
    match Hashtbl.find_opt seg_table key with
    | Some id -> id
    | None ->
      let id = !n_segs in
      incr n_segs;
      Hashtbl.add seg_table key id;
      segments := key :: !segments;
      id
  in
  let seg_of_path =
    Array.map
      (fun (p : Path_extract.path) ->
        let g = p.gates in
        let len = Array.length g in
        let segs = ref [] in
        let current = ref [ g.(0) ] in
        for i = 0 to len - 2 do
          let a = g.(i) and b = g.(i + 1) in
          if deg out_deg a = 1 && deg in_deg b = 1 then current := b :: !current
          else begin
            segs := seg_id !current :: !segs;
            current := [ b ]
          end
        done;
        segs := seg_id !current :: !segs;
        Array.of_list (List.rev !segs))
      paths
  in
  let segments = Array.of_list (List.rev !segments) in
  (segments, seg_of_path)

let build dm path_list =
  if path_list = [] then invalid_arg "Paths.build: empty path list";
  let paths = Array.of_list path_list in
  let segments, seg_of_path = extract_segments paths in
  let n = Array.length paths in
  let n_s = Array.length segments in
  let { Delay_model.ptr; slots; coefs } = Delay_model.terms dm in
  (* variable space over covered gates: the used slots, numbered in
     ascending slot order *)
  let covered = Array.make (Circuit.Netlist.num_gates (Delay_model.netlist dm)) false in
  let used = Array.make (Delay_model.num_slots dm) false in
  Array.iter
    (Array.iter (fun g ->
         covered.(g) <- true;
         for e = ptr.(g) to ptr.(g + 1) - 1 do
           used.(slots.(e)) <- true
         done))
    segments;
  let order = Array.of_seq (Seq.filter (Array.get used) (Seq.init (Array.length used) Fun.id)) in
  let col = Array.make (Array.length used) (-1) in
  Array.iteri (fun j s -> col.(s) <- j) order;
  let model = Delay_model.model dm in
  let vars = Array.map (Variation.key_of_slot model) order in
  let m = Array.length vars in
  (* segment sensitivities and nominal delays *)
  let sigma_mat = Linalg.Mat.create n_s m in
  let mu_segments = Array.make n_s 0.0 in
  Array.iteri
    (fun s gates ->
      Array.iter
        (fun g ->
          mu_segments.(s) <- mu_segments.(s) +. Delay_model.nominal dm g;
          for e = ptr.(g) to ptr.(g + 1) - 1 do
            let j = col.(slots.(e)) in
            Linalg.Mat.set sigma_mat s j (Linalg.Mat.get sigma_mat s j +. coefs.(e))
          done)
        gates)
    segments;
  let g_mat = Linalg.Mat.create n n_s in
  Array.iteri
    (fun i segs -> Array.iter (fun s -> Linalg.Mat.set g_mat i s 1.0) segs)
    seg_of_path;
  (* Sigma is mostly exact zeros, so G Sigma runs through CSR; on finite
     sensitivities it is bit-identical to the dense Mat.mul (see Sparse) *)
  let a_mat = Linalg.Sparse.dense_mul g_mat (Linalg.Sparse.of_dense sigma_mat) in
  let mu_paths = Linalg.Mat.apply g_mat mu_segments in
  let covered_regions =
    let cells = Hashtbl.create 64 in
    Array.iter
      (fun k ->
        match k with
        | Variation.Region { level; cell; _ } -> Hashtbl.replace cells (level, cell) ()
        | Variation.Gate_random _ -> ())
      vars;
    Hashtbl.length cells
  in
  {
    dm; paths; segments; seg_of_path; vars; g_mat; sigma_mat; a_mat;
    mu_paths; mu_segments;
    covered_gates = Array.fold_left (fun k c -> if c then k + 1 else k) 0 covered;
    covered_regions;
  }

let num_paths t = Array.length t.paths

let num_segments t = Array.length t.segments

let num_vars t = Array.length t.vars

let covered_gates t = t.covered_gates

let covered_regions t = t.covered_regions

let path t i = t.paths.(i)

let segment_gates t s = Array.copy t.segments.(s)

let segments_of_path t i = Array.copy t.seg_of_path.(i)

let g_mat t = t.g_mat

let sigma_mat t = t.sigma_mat

let a_mat t = t.a_mat

let mu_paths t = t.mu_paths

let mu_segments t = t.mu_segments

let delay_model t = t.dm

let var_keys t = Array.copy t.vars

let path_row t i =
  let { Delay_model.ptr; slots; coefs } = Delay_model.terms t.dm in
  let model = Delay_model.model t.dm in
  let col = Array.make (Delay_model.num_slots t.dm) (-1) in
  Array.iteri (fun j k -> col.(Variation.slot model k) <- j) t.vars;
  let row = Array.make (Array.length t.vars) 0.0 in
  Array.iter
    (fun g ->
      for e = ptr.(g) to ptr.(g + 1) - 1 do
        let j = col.(slots.(e)) in
        row.(j) <- row.(j) +. coefs.(e)
      done)
    t.paths.(i).gates;
  row
