(* Tests for placement IO. *)

open Helpers

let netlist () =
  Circuit.Generator.generate { Circuit.Generator.default with num_gates = 40; seed = 77 }

let test_roundtrip () =
  let nl = netlist () in
  let text = Circuit.Placement_io.print nl in
  let placements = Circuit.Placement_io.parse text in
  Alcotest.(check int) "one entry per gate" (Circuit.Netlist.num_gates nl)
    (List.length placements);
  let nl2 = Circuit.Placement_io.apply nl placements in
  Array.iter
    (fun (g : Circuit.Netlist.gate) ->
      let g2 = Circuit.Netlist.gate nl2 g.id in
      check_close ~tol:1e-5 (g.name ^ " x") g.x g2.x;
      check_close ~tol:1e-5 (g.name ^ " y") g.y g2.y)
    (Circuit.Netlist.gates nl)

let test_apply_moves_gates () =
  let nl = netlist () in
  let name0 = (Circuit.Netlist.gate nl 0).Circuit.Netlist.name in
  let nl2 = Circuit.Placement_io.apply nl [ (name0, (0.9, 0.1)) ] in
  let g0 = Circuit.Netlist.gate nl2 0 in
  check_close "moved x" 0.9 g0.x;
  check_close "moved y" 0.1 g0.y;
  (* other gates untouched *)
  let g1 = Circuit.Netlist.gate nl 1 and g1' = Circuit.Netlist.gate nl2 1 in
  check_close "others x" g1.x g1'.x

let test_placement_changes_spatial_model () =
  (* moving every gate into one corner collapses the covered regions *)
  let nl = netlist () in
  let everywhere =
    Array.to_list (Circuit.Netlist.gates nl)
    |> List.map (fun (g : Circuit.Netlist.gate) -> (g.name, (0.01, 0.01)))
  in
  let nl2 = Circuit.Placement_io.apply nl everywhere in
  let model = Timing.Variation.make_model ~levels:3 () in
  let pool_of n =
    let dm = Timing.Delay_model.build n model in
    let t = Timing.Delay_model.nominal_critical_delay dm in
    let r = Timing.Path_extract.extract dm ~t_cons:t ~yield_threshold:0.999 in
    Timing.Paths.build dm r.Timing.Path_extract.paths
  in
  let spread = Timing.Paths.covered_regions (pool_of nl) in
  let cornered = Timing.Paths.covered_regions (pool_of nl2) in
  Alcotest.(check bool)
    (Printf.sprintf "cornered %d < spread %d regions" cornered spread)
    true (cornered < spread);
  (* one cell per level when everything sits in one corner *)
  Alcotest.(check int) "3 regions when colocated" 3 cornered

let test_parse_errors () =
  Alcotest.(check bool) "off-die rejected" true
    (match Circuit.Placement_io.parse "g0 1.5 0.2\n" with
     | (_ : (string * (float * float)) list) -> false
     | exception Circuit.Placement_io.Parse_error (1, _) -> true);
  Alcotest.(check bool) "malformed rejected" true
    (match Circuit.Placement_io.parse "g0 abc 0.2\n" with
     | (_ : (string * (float * float)) list) -> false
     | exception Circuit.Placement_io.Parse_error _ -> true);
  Alcotest.(check bool) "comment-only ok" true
    (Circuit.Placement_io.parse "# nothing\n\n" = [])

let test_apply_unknown_gate () =
  let nl = netlist () in
  Alcotest.(check bool) "unknown gate" true
    (match Circuit.Placement_io.apply nl [ ("ghost", (0.5, 0.5)) ] with
     | (_ : Circuit.Netlist.t) -> false
     | exception Invalid_argument _ -> true)

let unit_tests =
  [
    ("placement: roundtrip", test_roundtrip);
    ("placement: apply moves gates", test_apply_moves_gates);
    ("placement: drives the spatial model", test_placement_changes_spatial_model);
    ("placement: parse errors", test_parse_errors);
    ("placement: unknown gate", test_apply_unknown_gate);
  ]

let suites =
  [
    ( "placement",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
