exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

type raw_line =
  | Input of string
  | Output of string
  | Assign of string * string * string list  (* lhs, function, args *)

let lex_line lineno s =
  let s = match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let s = String.trim s in
  if s = "" then None
  else begin
    let paren_payload keyword =
      let plen = String.length keyword in
      if String.length s > plen + 1
         && String.uppercase_ascii (String.sub s 0 plen) = keyword
         && s.[plen] = '('
         && s.[String.length s - 1] = ')'
      then Some (String.trim (String.sub s (plen + 1) (String.length s - plen - 2)))
      else None
    in
    match paren_payload "INPUT" with
    | Some arg -> Some (Input arg)
    | None ->
      match paren_payload "OUTPUT" with
      | Some arg -> Some (Output arg)
      | None ->
        match String.index_opt s '=' with
        | None -> fail lineno "unrecognized line: %s" s
        | Some eq ->
          let lhs = String.trim (String.sub s 0 eq) in
          let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
          (match String.index_opt rhs '(' with
           | None -> fail lineno "missing '(' in %s" rhs
           | Some op when rhs.[String.length rhs - 1] = ')' ->
             let fname = String.trim (String.sub rhs 0 op) in
             let args_s = String.sub rhs (op + 1) (String.length rhs - op - 2) in
             let args =
               String.split_on_char ',' args_s
               |> List.map String.trim
               |> List.filter (fun a -> a <> "")
             in
             Some (Assign (lhs, fname, args))
           | Some _ -> fail lineno "missing ')' in %s" rhs)
  end

(* Widen/narrow a parsed function to one of our cells based on arity.
   ISCAS benches use NAND/NOR/AND/OR with arbitrary arity; arity > 3 is
   decomposed into a tree of 2-input cells by the caller. *)
let cell_for lineno fname nargs =
  match Cell.of_name fname with
  | Some c when Cell.arity c = nargs -> c
  | Some _ | None ->
  match String.uppercase_ascii fname, nargs with
  | ("NOT" | "INV"), 1 -> Cell.Inv
  | ("BUF" | "BUFF"), 1 -> Cell.Buf
  | "NAND", 2 -> Cell.Nand2
  | "NAND", 3 -> Cell.Nand3
  | "NOR", 2 -> Cell.Nor2
  | "NOR", 3 -> Cell.Nor3
  | "AND", 2 -> Cell.And2
  | "OR", 2 -> Cell.Or2
  | "XOR", 2 -> Cell.Xor2
  | "XNOR", 2 -> Cell.Xnor2
  | "AOI21", 3 -> Cell.Aoi21
  | "OAI21", 3 -> Cell.Oai21
  | f, n -> fail lineno "unsupported function %s/%d" f n

let base_pair_cell lineno fname =
  (* the 2-input cell used when decomposing a wide AND/OR/NAND/NOR *)
  match String.uppercase_ascii fname with
  | "AND" | "NAND" -> Cell.And2
  | "OR" | "NOR" -> Cell.Or2
  | f -> fail lineno "cannot decompose wide %s" f

let top_cell_for_wide lineno fname =
  match String.uppercase_ascii fname with
  | "AND" -> Cell.And2
  | "NAND" -> Cell.Nand2
  | "OR" -> Cell.Or2
  | "NOR" -> Cell.Nor2
  | f -> fail lineno "cannot decompose wide %s" f

let parse_impl ~lenient ~name text =
  let warnings = ref [] in
  let warn lineno fmt =
    Printf.ksprintf
      (fun s ->
        warnings :=
          (if lineno > 0 then Printf.sprintf "%s:%d: %s" name lineno s
           else Printf.sprintf "%s: %s" name s)
          :: !warnings)
      fmt
  in
  let lines = String.split_on_char '\n' text in
  let raw =
    List.mapi
      (fun i l ->
        let lineno = i + 1 in
        match lex_line lineno l with
        | parsed -> (lineno, parsed)
        | exception Parse_error (_, msg) when lenient ->
          warn lineno "skipping unparseable line (%s)" msg;
          (lineno, None))
      lines
    |> List.filter_map (fun (i, l) -> Option.map (fun l -> (i, l)) l)
  in
  (* First pass: collect inputs, outputs, and assignments; DFF outputs
     become pseudo-inputs and their data pins pseudo-outputs. *)
  let inputs = ref [] and outputs = ref [] and assigns = ref [] in
  List.iter
    (fun (lineno, l) ->
      match l with
      | Input s -> inputs := s :: !inputs
      | Output s -> outputs := s :: !outputs
      | Assign (lhs, fname, args) ->
        if String.uppercase_ascii fname = "DFF" then begin
          match args with
          | [ d ] ->
            inputs := lhs :: !inputs;
            outputs := d :: !outputs
          | _ ->
            if lenient then warn lineno "skipping DFF %s: expected one input" lhs
            else fail lineno "DFF must have exactly one input"
        end
        else assigns := (lineno, lhs, fname, args) :: !assigns)
    raw;
  let inputs = List.rev !inputs and outputs = List.rev !outputs in
  let assigns = List.rev !assigns in
  let input_index = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace input_index s i) inputs;
  (* Topologically order the assignments (the format does not require
     definition-before-use). *)
  let def_of = Hashtbl.create 64 in
  List.iter (fun ((_, lhs, _, _) as a) -> Hashtbl.replace def_of lhs a) assigns;
  let emitted = Hashtbl.create 64 in
  let skipped = Hashtbl.create 16 in
  let ordered = ref [] in
  let visiting = Hashtbl.create 16 in
  let rec emit lhs =
    (* returns true when lhs resolves to a usable signal *)
    if Hashtbl.mem emitted lhs || Hashtbl.mem input_index lhs then true
    else if Hashtbl.mem skipped lhs then false
    else begin
      if Hashtbl.mem visiting lhs then
        raise (Parse_error (0, Printf.sprintf "combinational cycle through %s" lhs));
      match Hashtbl.find_opt def_of lhs with
      | None ->
        if lenient then begin
          warn 0 "undefined signal %s" lhs;
          Hashtbl.add skipped lhs ();
          false
        end
        else raise (Parse_error (0, Printf.sprintf "undefined signal %s" lhs))
      | Some ((lineno, _, _, args) as a) ->
        Hashtbl.add visiting lhs ();
        let ok = List.fold_left (fun acc arg -> emit arg && acc) true args in
        Hashtbl.remove visiting lhs;
        if ok then begin
          Hashtbl.add emitted lhs ();
          ordered := a :: !ordered;
          true
        end
        else begin
          (* only reachable in lenient mode: strict emit raises *)
          warn lineno "skipping %s: depends on an undefined signal" lhs;
          Hashtbl.add skipped lhs ();
          false
        end
    end
  in
  List.iter (fun (_, lhs, _, _) -> ignore (emit lhs)) assigns;
  let outputs =
    List.filter
      (fun o ->
        if Hashtbl.mem input_index o then true
        else begin
          match emit o with
          | true -> true
          | false ->
            warn 0 "dropping output %s: undefined" o;
            false
          | exception Parse_error (l, msg) when lenient ->
            warn l "dropping output %s: %s" o msg;
            false
        end)
      outputs
  in
  if outputs = [] then raise (Parse_error (0, "no usable outputs"));
  let ordered = List.rev !ordered in
  (* Second pass: build gates, decomposing wide functions, and assign a
     deterministic placement by fanin averaging. *)
  let num_inputs = List.length inputs in
  let gate_sig = Hashtbl.create 64 in  (* signal name -> Netlist.signal *)
  List.iteri (fun i s -> Hashtbl.replace gate_sig s (Netlist.Pi i)) inputs;
  let gid = ref 0 in
  let gates = ref [] in
  let positions = Hashtbl.create 64 in
  let pos_of = function
    | Netlist.Pi i ->
      (0.02, float_of_int (i mod 97) /. 97.0)
    | Netlist.Gate_out g -> Hashtbl.find positions g
  in
  let clamp v = Float.min 1.0 (Float.max 0.0 v) in
  let add_gate gname cell fanin =
    let id = !gid in
    incr gid;
    let ps = Array.map pos_of fanin in
    let n = float_of_int (Array.length ps) in
    let sx = Array.fold_left (fun acc (x, _) -> acc +. x) 0.0 ps in
    let sy = Array.fold_left (fun acc (_, y) -> acc +. y) 0.0 ps in
    (* deterministic jitter from the gate id *)
    let jx = float_of_int ((id * 37) mod 13) /. 13.0 *. 0.08 in
    let jy = float_of_int ((id * 61) mod 17) /. 17.0 *. 0.08 in
    let x = clamp ((sx /. n) +. 0.05 +. jx) and y = clamp ((sy /. n) +. jy) in
    Hashtbl.replace positions id (x, y);
    gates := (gname, cell, fanin, (x, y)) :: !gates;
    Netlist.Gate_out id
  in
  let resolve lineno s =
    match Hashtbl.find_opt gate_sig s with
    | Some v -> v
    | None -> fail lineno "undefined signal %s" s
  in
  List.iter
    (fun (lineno, lhs, fname, args) ->
      try
        let args_sig = List.map (resolve lineno) args in
        let out =
          match args_sig with
        | [] -> fail lineno "%s has no arguments" lhs
        | [ a ] -> add_gate lhs (cell_for lineno fname 1) [| a |]
        | [ a; b ] -> add_gate lhs (cell_for lineno fname 2) [| a; b |]
        | [ a; b; c ]
          when (match cell_for lineno fname 3 with
                | (_ : Cell.kind) -> true
                | exception Parse_error _ -> false) ->
          add_gate lhs (cell_for lineno fname 3) [| a; b; c |]
        | many ->
          (* left-reduce into a tree of 2-input cells; the final stage
             carries the inversion for NAND/NOR *)
          let pair = base_pair_cell lineno fname in
          let top = top_cell_for_wide lineno fname in
          let rec reduce k = function
            | [ a; b ] -> add_gate lhs top [| a; b |]
            | a :: b :: rest ->
              let t = add_gate (Printf.sprintf "%s_t%d" lhs k) pair [| a; b |] in
              reduce (k + 1) (t :: rest)
            | _ -> assert false
          in
          reduce 0 many
        in
        Hashtbl.replace gate_sig lhs out
      with Parse_error (l, msg) when lenient ->
        warn (if l > 0 then l else lineno) "skipping %s (%s)" lhs msg)
    ordered;
  let out_sigs =
    List.filter_map
      (fun o ->
        match Hashtbl.find_opt gate_sig o with
        | Some v -> Some v
        | None ->
          if lenient then begin
            warn 0 "dropping output %s: its driver was skipped" o;
            None
          end
          else raise (Parse_error (0, Printf.sprintf "undefined output %s" o)))
      outputs
  in
  if out_sigs = [] then raise (Parse_error (0, "no usable outputs"));
  (Netlist.build ~name ~num_inputs ~gates:(List.rev !gates) ~outputs:out_sigs,
   List.rev !warnings)

let parse ~name text = fst (parse_impl ~lenient:false ~name text)

let parse_lenient ~name text = parse_impl ~lenient:true ~name text

let print nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.name nl));
  for i = 0 to Netlist.num_inputs nl - 1 do
    Buffer.add_string buf (Printf.sprintf "INPUT(pi%d)\n" i)
  done;
  Array.iter
    (fun o -> Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Netlist.signal_name nl o)))
    (Netlist.outputs nl);
  let fname cell =
    match cell with
    | Cell.Inv -> "NOT"
    | Cell.Buf -> "BUF"
    | Cell.Nand2 | Cell.Nand3 -> "NAND"
    | Cell.Nor2 | Cell.Nor3 -> "NOR"
    | Cell.And2 -> "AND"
    | Cell.Or2 -> "OR"
    | Cell.Xor2 -> "XOR"
    | Cell.Xnor2 -> "XNOR"
    | Cell.Aoi21 -> "AOI21"
    | Cell.Oai21 -> "OAI21"
  in
  Array.iter
    (fun g ->
      let args =
        g.Netlist.fanin
        |> Array.map (fun code -> Netlist.signal_name nl (Netlist.decode_signal nl code))
        |> Array.to_list |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" g.Netlist.name (fname g.Netlist.cell) args))
    (Netlist.gates nl);
  Buffer.contents buf
