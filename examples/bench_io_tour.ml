(* Working with ISCAS .bench netlists: print a generated circuit to the
   .bench format, parse it back, and run the full selection flow on the
   parsed netlist. Drop in a real benchmark file to run on it instead:

     dune exec examples/bench_io_tour.exe -- path/to/s1423.bench

   Run with:  dune exec examples/bench_io_tour.exe *)

let () =
  let netlist =
    match Sys.argv with
    | [| _; path |] ->
      Printf.printf "parsing %s\n" path;
      (match Core.Errors.parse_bench_file path with
       | Ok (nl, _) -> nl
       | Error e ->
         prerr_endline (Core.Errors.to_string e);
         exit (Core.Errors.exit_code e))
    | _ ->
      (* no file given: demonstrate the round trip on a generated one *)
      let original =
        Circuit.Generator.generate
          { Circuit.Generator.default with num_gates = 220; seed = 6 }
      in
      let text = Circuit.Bench_io.print original in
      print_endline "first lines of the .bench rendering:";
      String.split_on_char '\n' text
      |> List.filteri (fun i _ -> i < 8)
      |> List.iter (fun l -> Printf.printf "  %s\n" l);
      Printf.printf "  ... (%d lines total)\n\n" (List.length (String.split_on_char '\n' text));
      Circuit.Bench_io.parse ~name:"roundtrip" text
  in
  Printf.printf "netlist: %s\n" (Circuit.Netlist.stats netlist);
  let model = Timing.Variation.make_model ~levels:3 () in
  let setup = Core.Pipeline.prepare ~netlist ~model () in
  let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
  Printf.printf
    "selection on the parsed netlist: %d of %d target paths (eps_r = %.2f%%)\n"
    (Array.length sel.indices)
    (Timing.Paths.num_paths setup.pool)
    (100.0 *. sel.eps_r)
