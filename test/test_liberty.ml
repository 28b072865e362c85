(* Tests for the Liberty reader and the NLDM delay calculator. *)

open Helpers

let builtin_lib =
  lazy (Circuit.Liberty.Library.of_group (Circuit.Liberty.parse Circuit.Liberty.builtin))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_builtin () =
  let g = Circuit.Liberty.parse Circuit.Liberty.builtin in
  Alcotest.(check string) "top group" "library" g.Circuit.Liberty.gname;
  let lib = Circuit.Liberty.Library.of_group g in
  Alcotest.(check string) "name" "repro90" lib.Circuit.Liberty.Library.lib_name;
  Alcotest.(check int) "twelve cells" 12
    (List.length lib.Circuit.Liberty.Library.cells)

let test_parse_comments_and_strings () =
  let text =
    "library (demo) { /* block\ncomment */ // line comment\n# hash comment\n\
     cell (X) { area : 2.5; pin (A) { direction : input; capacitance : 0.002; } } }"
  in
  let lib = Circuit.Liberty.Library.of_group (Circuit.Liberty.parse text) in
  match Circuit.Liberty.Library.find_cell lib "X" with
  | None -> Alcotest.fail "cell X missing"
  | Some c ->
    Alcotest.(check bool) "area parsed" true (c.Circuit.Liberty.Library.area = Some 2.5);
    check_close "cap" 0.002 (Circuit.Liberty.Library.average_input_cap c)

let test_parse_complex_attribute () =
  let text = "library (demo) { capacitive_load_unit (1, pf); cell (Y) { area : 1.0; } }" in
  let g = Circuit.Liberty.parse text in
  Alcotest.(check bool) "complex attr captured" true
    (List.mem_assoc "capacitive_load_unit" g.Circuit.Liberty.attrs)

let test_parse_errors () =
  Alcotest.(check bool) "unterminated group" true
    (match Circuit.Liberty.parse "library (x) { cell (y) {" with
     | (_ : Circuit.Liberty.group) -> false
     | exception Circuit.Liberty.Parse_error _ -> true);
  Alcotest.(check bool) "garbage" true
    (match Circuit.Liberty.parse "%%%" with
     | (_ : Circuit.Liberty.group) -> false
     | exception Circuit.Liberty.Parse_error _ -> true)

let test_not_a_library () =
  Alcotest.(check bool) "of_group rejects non-library" true
    (match
       Circuit.Liberty.Library.of_group (Circuit.Liberty.parse "cell (x) { }")
     with
     | (_ : Circuit.Liberty.Library.t) -> false
     | exception Circuit.Liberty.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Tables *)

let table =
  {
    Circuit.Liberty.Table.index1 = [| 0.0; 1.0 |];
    index2 = [| 0.0; 2.0 |];
    values = [| [| 0.0; 2.0 |]; [| 1.0; 3.0 |] |];
  }

let test_table_corners () =
  let lk slew load = Circuit.Liberty.Table.lookup table ~slew ~load in
  check_close "corner 00" 0.0 (lk 0.0 0.0);
  check_close "corner 01" 2.0 (lk 0.0 2.0);
  check_close "corner 10" 1.0 (lk 1.0 0.0);
  check_close "corner 11" 3.0 (lk 1.0 2.0)

let test_table_interpolation () =
  let lk slew load = Circuit.Liberty.Table.lookup table ~slew ~load in
  check_close "center" 1.5 (lk 0.5 1.0);
  check_close "edge midpoint" 0.5 (lk 0.5 0.0)

let test_table_clamping () =
  let lk slew load = Circuit.Liberty.Table.lookup table ~slew ~load in
  (* queries beyond the characterized grid clamp to the edge value *)
  check_close "beyond slew clamps" 1.0 (lk 2.0 0.0);
  check_close "below slew clamps" 0.0 (lk (-1.0) 0.0);
  check_close "beyond load clamps" 3.0 (lk 5.0 9.0)

let test_table_monotone_in_load () =
  let lib = Lazy.force builtin_lib in
  match Circuit.Liberty.Library.find_cell lib "INV" with
  | None -> Alcotest.fail "INV missing"
  | Some c ->
    let d1 = Circuit.Liberty.Library.worst_delay c ~slew:0.05 ~load:0.002 in
    let d2 = Circuit.Liberty.Library.worst_delay c ~slew:0.05 ~load:0.02 in
    Alcotest.(check bool) "more load, more delay" true (d2 > d1)

(* ------------------------------------------------------------------ *)
(* Delay calculation *)

let netlist () =
  Circuit.Generator.generate { Circuit.Generator.default with num_gates = 150; seed = 2 }

let test_delay_calc_positive () =
  let lib = Lazy.force builtin_lib in
  let nl = netlist () in
  let r = Timing.Delay_calc.run lib nl in
  Array.iteri
    (fun g d -> if d <= 0.0 then Alcotest.failf "gate %d delay %.3f <= 0" g d)
    r.Timing.Delay_calc.delays;
  Array.iter
    (fun l -> if l <= 0.0 then Alcotest.fail "gate with zero load")
    r.Timing.Delay_calc.loads

let test_delay_calc_fanout_increases_load () =
  let lib = Lazy.force builtin_lib in
  let nl = netlist () in
  let r = Timing.Delay_calc.run lib nl in
  (* the gate with max fanout must carry more load than one with min *)
  let gmax = ref 0 and gmin = ref 0 in
  for g = 0 to Circuit.Netlist.num_gates nl - 1 do
    if Circuit.Netlist.fanout_count nl g > Circuit.Netlist.fanout_count nl !gmax then
      gmax := g;
    if Circuit.Netlist.fanout_count nl g < Circuit.Netlist.fanout_count nl !gmin then
      gmin := g
  done;
  Alcotest.(check bool) "load tracks fanout" true
    (r.Timing.Delay_calc.loads.(!gmax) > r.Timing.Delay_calc.loads.(!gmin))

let test_delay_calc_slew_propagates () =
  (* deep gates should generally see different slews than PI-driven
     gates; at minimum, some slew must differ from the PI default *)
  let lib = Lazy.force builtin_lib in
  let nl = netlist () in
  let r = Timing.Delay_calc.run lib nl in
  let distinct = Hashtbl.create 16 in
  Array.iter (fun s -> Hashtbl.replace distinct s ()) r.Timing.Delay_calc.slews;
  Alcotest.(check bool) "slews vary" true (Hashtbl.length distinct > 3)

let test_delay_model_from_nldm () =
  let lib = Lazy.force builtin_lib in
  let nl = netlist () in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_calc.delay_model lib nl ~model in
  let r = Timing.Delay_calc.run lib nl in
  for g = 0 to Circuit.Netlist.num_gates nl - 1 do
    check_close ~tol:1e-9 "nominal = NLDM delay" r.Timing.Delay_calc.delays.(g)
      (Timing.Delay_model.nominal dm g)
  done;
  (* sensitivities still follow the 6% random share rule *)
  let total = Timing.Delay_model.sigma dm 0 ** 2.0 in
  let rand_var =
    List.fold_left
      (fun acc (k, c) ->
        match k with
        | Timing.Variation.Gate_random _ -> acc +. (c *. c)
        | Timing.Variation.Region _ -> acc)
      0.0
      (Timing.Delay_model.sensitivities dm 0)
  in
  check_close ~tol:1e-9 "random share preserved" 0.06 (rand_var /. total)

let test_delay_model_nominals_validation () =
  let nl = netlist () in
  let model = Timing.Variation.make_model ~levels:3 () in
  Alcotest.(check bool) "wrong length rejected" true
    (match Timing.Delay_model.build_with_nominals nl model [| 1.0 |] with
     | (_ : Timing.Delay_model.t) -> false
     | exception Invalid_argument _ -> true)

let test_full_selection_on_nldm_model () =
  (* the whole pipeline runs off an NLDM-based delay model *)
  let lib = Lazy.force builtin_lib in
  let nl = netlist () in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_calc.delay_model lib nl ~model in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r = Timing.Path_extract.extract dm ~t_cons ~yield_threshold:0.995 in
  Alcotest.(check bool) "paths extracted" true (r.Timing.Path_extract.paths <> []);
  let pool = Timing.Paths.build dm r.Timing.Path_extract.paths in
  let sel =
    Core.Select.approximate ~a:(Timing.Paths.a_mat pool)
      ~mu:(Timing.Paths.mu_paths pool) ~eps:0.05 ~t_cons ()
  in
  Alcotest.(check bool) "selection within tolerance" true (sel.Core.Select.eps_r <= 0.05)

let unit_tests =
  [
    ("liberty: parse builtin", test_parse_builtin);
    ("liberty: comments and strings", test_parse_comments_and_strings);
    ("liberty: complex attribute", test_parse_complex_attribute);
    ("liberty: parse errors", test_parse_errors);
    ("liberty: of_group rejects non-library", test_not_a_library);
    ("table: corners", test_table_corners);
    ("table: bilinear interpolation", test_table_interpolation);
    ("table: clamped extrapolation", test_table_clamping);
    ("table: monotone in load", test_table_monotone_in_load);
    ("nldm: positive delays and loads", test_delay_calc_positive);
    ("nldm: load tracks fanout", test_delay_calc_fanout_increases_load);
    ("nldm: slews propagate", test_delay_calc_slew_propagates);
    ("nldm: feeds delay model", test_delay_model_from_nldm);
    ("nldm: nominal validation", test_delay_model_nominals_validation);
    ("nldm: full selection pipeline", test_full_selection_on_nldm_model);
  ]

let suites =
  [
    ( "liberty+nldm",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
