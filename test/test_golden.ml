(* Golden-file tests: the committed sample data in examples/data must
   stay parseable and mutually consistent. *)

let data_dir =
  (* dune runs tests from the build sandbox; locate the source tree *)
  let candidates =
    [ "examples/data"; "../examples/data"; "../../examples/data";
      "../../../examples/data"; "../../../../examples/data" ]
  in
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists (Filename.concat d "demo90.bench"))
       candidates)

let with_data f =
  match Lazy.force data_dir with
  | Some dir -> f dir
  | None -> () (* data not visible from the sandbox: skip silently *)

let demo90 dir =
  fst
    (Core.Errors.get_ok
       (Core.Errors.parse_bench_file (Filename.concat dir "demo90.bench")))

let test_bench_golden () =
  with_data (fun dir ->
      let nl = demo90 dir in
      Alcotest.(check int) "gate count" 90 (Circuit.Netlist.num_gates nl))

let test_verilog_matches_bench () =
  with_data (fun dir ->
      let nb = demo90 dir in
      let nv =
        Core.Errors.get_ok
          (Core.Errors.parse_verilog_file (Filename.concat dir "demo90.v"))
      in
      Alcotest.(check int) "same gates" (Circuit.Netlist.num_gates nb)
        (Circuit.Netlist.num_gates nv);
      Alcotest.(check int) "same depth" (Circuit.Netlist.depth nb)
        (Circuit.Netlist.depth nv))

let test_placement_golden () =
  with_data (fun dir ->
      let nl = demo90 dir in
      let placements =
        Core.Errors.get_ok
          (Core.Errors.parse_placement_file (Filename.concat dir "demo90.pl"))
      in
      let nl2 = Circuit.Placement_io.apply nl placements in
      Alcotest.(check int) "all gates placed" (Circuit.Netlist.num_gates nl)
        (List.length placements);
      ignore nl2)

let test_liberty_golden () =
  with_data (fun dir ->
      let lib =
        Core.Errors.get_ok
          (Core.Errors.parse_liberty_file (Filename.concat dir "repro90.lib"))
      in
      Alcotest.(check int) "twelve cells" 12
        (List.length lib.Circuit.Liberty.Library.cells))

let test_sdf_golden () =
  with_data (fun dir ->
      let nl = demo90 dir in
      let pairs =
        Timing.Sdf.read
          (Core.Errors.get_ok (Core.Errors.read_file (Filename.concat dir "demo90.sdf")))
      in
      let delays = Timing.Sdf.annotate nl pairs in
      Alcotest.(check int) "delay per gate" (Circuit.Netlist.num_gates nl)
        (Array.length delays);
      Array.iter (fun d -> if d <= 0.0 then Alcotest.fail "non-positive delay") delays)

let test_full_pipeline_on_golden () =
  with_data (fun dir ->
      let nl = demo90 dir in
      let model = Timing.Variation.make_model ~levels:3 () in
      let setup = Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:120 () in
      let sel = Core.Pipeline.approximate_selection setup ~eps:0.05 in
      Alcotest.(check bool) "tolerance met" true (sel.Core.Select.eps_r <= 0.05);
      (* bit pins on demo90's 94x65 A: Algorithm 1's representatives and
         eps_r, and the exact selection *)
      Alcotest.(check (array int)) "representatives" [| 21; 53; 79 |] sel.Core.Select.indices;
      Alcotest.(check (float 0.0)) "eps_r" 0x1.5a71a4ca96313p-5 sel.Core.Select.eps_r;
      let exact = Core.Pipeline.exact_selection setup in
      Alcotest.(check int) "exact size" 28 (Array.length exact.Core.Select.indices);
      Alcotest.(check (float 0.0)) "exact eps_r" 0x1.a6bacb58ed234p-46 exact.Core.Select.eps_r;
      (* bit pins on the two Monte Carlo runs: the yield sweep behind the
         extraction threshold, and the virtual dies that score the
         selection *)
      Alcotest.(check (float 0.0)) "circuit yield" 0x1.f777777777777p-2
        setup.Core.Pipeline.circuit_yield;
      let m = Core.Pipeline.evaluate_selection ~mc_samples:200 ~seed:3 setup sel in
      Alcotest.(check (float 0.0)) "e1" 0x1.f8209f4935cecp-6 m.Core.Evaluate.e1;
      Alcotest.(check (float 0.0)) "e2" 0x1.01ba8cb951a84p-7 m.Core.Evaluate.e2)

(* a zero level weight puts exact 0.0 coefficients on the extraction
   DFS's stack; popping a key whose running sum had already returned to
   0.0 (and been dropped) once raised Not_found out of [prepare] *)
let test_zero_level_weight () =
  with_data (fun dir ->
      let nl = demo90 dir in
      let model = Timing.Variation.make_model ~level_weights:[| 0.0; 0.5; 0.5 |] ~levels:3 () in
      match Core.Pipeline.prepare_result ~netlist:nl ~model ~yield_samples:120 () with
      | Error e -> Alcotest.failf "prepare: %s" (Core.Errors.to_string e)
      | Ok setup ->
        Alcotest.(check int) "paths" 67 (Timing.Paths.num_paths setup.Core.Pipeline.pool))

(* bit pin on the generator's stream: 1000 polar deviates (so 500 cached
   spares), then the raw word that follows the last spare *)
let test_rng_stream_pinned () =
  let r = Rng.create 7 in
  let h = ref 0L in
  for _ = 1 to 1000 do
    h := Int64.add (Int64.mul !h 31L) (Int64.bits_of_float (Rng.gaussian r))
  done;
  Alcotest.(check int64) "gaussian fold" 2521607213528076706L !h;
  Alcotest.(check int64) "next bits64" (-4926611735503755677L) (Rng.bits64 r)

let unit_tests =
  [
    ("golden: .bench parses", test_bench_golden);
    ("golden: verilog matches bench", test_verilog_matches_bench);
    ("golden: placement applies", test_placement_golden);
    ("golden: liberty parses", test_liberty_golden);
    ("golden: sdf annotates", test_sdf_golden);
    ("golden: pipeline runs", test_full_pipeline_on_golden);
    ("golden: zero level weight extracts", test_zero_level_weight);
    ("golden: rng stream", test_rng_stream_pinned);
  ]

let suites =
  [
    ( "golden",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
