let write nl ~delays =
  if Array.length delays <> Circuit.Netlist.num_gates nl then
    invalid_arg "Sdf.write: delays length mismatch";
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "(DELAYFILE\n";
  Buffer.add_string buf "  (SDFVERSION \"3.0\")\n";
  Buffer.add_string buf
    (Printf.sprintf "  (DESIGN \"%s\")\n" (Circuit.Netlist.name nl));
  Buffer.add_string buf "  (TIMESCALE 1ps)\n";
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let d = delays.(g.id) in
      Buffer.add_string buf
        (Printf.sprintf
           "  (CELL (CELLTYPE \"%s\") (INSTANCE %s)\n\
           \    (DELAY (ABSOLUTE (IOPATH A Z (%.3f:%.3f:%.3f) (%.3f:%.3f:%.3f)))))\n"
           (Circuit.Cell.name g.cell) g.name d d d d d d))
    (Circuit.Netlist.gates nl);
  Buffer.add_string buf ")\n";
  Buffer.contents buf
