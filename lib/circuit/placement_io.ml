exception Parse_error of int * string

let print nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# gate  x  y\n";
  Array.iter
    (fun (g : Netlist.gate) ->
      Buffer.add_string buf (Printf.sprintf "%s  %.6f  %.6f\n" g.name g.x g.y))
    (Netlist.gates nl);
  Buffer.contents buf

let parse text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let lineno = i + 1 in
         let line =
           match String.index_opt line '#' with
           | Some k -> String.sub line 0 k
           | None -> line
         in
         let words =
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         match words with
         | [] -> []
         | [ name; xs; ys ] ->
           (match float_of_string_opt xs, float_of_string_opt ys with
            | Some x, Some y ->
              if x < 0.0 || x > 1.0 || y < 0.0 || y > 1.0 then
                raise (Parse_error (lineno, "coordinates outside the unit die"));
              [ (name, (x, y)) ]
            | _, _ -> raise (Parse_error (lineno, "malformed coordinates")))
         | _ -> raise (Parse_error (lineno, "expected: name x y")))
       lines)

let apply nl placements =
  let tbl = Hashtbl.create (List.length placements) in
  List.iter
    (fun (name, pos) ->
      if not (Array.exists (fun (g : Netlist.gate) -> g.name = name) (Netlist.gates nl))
      then invalid_arg (Printf.sprintf "Placement_io.apply: unknown gate %s" name);
      Hashtbl.replace tbl name pos)
    placements;
  let gates =
    Array.to_list (Netlist.gates nl)
    |> List.map (fun (g : Netlist.gate) ->
         let x, y =
           match Hashtbl.find_opt tbl g.name with
           | Some pos -> pos
           | None -> (g.x, g.y)
         in
         let fanin =
           Array.map (fun code -> Netlist.decode_signal nl code) g.fanin
         in
         (g.name, g.cell, fanin, (x, y)))
  in
  let outputs = Array.to_list (Netlist.outputs nl) in
  Netlist.build ~name:(Netlist.name nl) ~num_inputs:(Netlist.num_inputs nl)
    ~gates ~outputs
