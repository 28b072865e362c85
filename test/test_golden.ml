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

let test_liberty_golden () =
  with_data (fun dir ->
      let lib =
        Core.Errors.get_ok
          (Core.Errors.parse_liberty_file (Filename.concat dir "repro90.lib"))
      in
      Alcotest.(check int) "twelve cells" 12
        (List.length lib.Circuit.Liberty.Library.cells))

(* the SDF writer over demo90's builtin-Liberty NLDM sweep, byte for
   byte: any change to a delay, its formatting or the document layout
   shows here *)
let test_sdf_writer_bytes () =
  with_data (fun dir ->
      let nl = demo90 dir in
      let lib =
        Circuit.Liberty.Library.of_group (Circuit.Liberty.parse Circuit.Liberty.builtin)
      in
      let sweep = Timing.Delay_calc.run lib nl in
      let expected =
        Core.Errors.get_ok (Core.Errors.read_file (Filename.concat dir "demo90.sdf"))
      in
      Alcotest.(check string) "demo90.sdf" expected
        (Timing.Sdf.write nl ~delays:sweep.Timing.Delay_calc.delays))

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
      (* the pipeline factors G R^T (Lemma 1); A's own SVD picks the
         same representatives, bit for bit *)
      let pool = setup.Core.Pipeline.pool in
      let a_only =
        Core.Select.approximate ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool)
          ~eps:0.05 ~t_cons:setup.Core.Pipeline.t_cons ()
      in
      Alcotest.(check (array int)) "representatives, A route" a_only.Core.Select.indices
        sel.Core.Select.indices;
      Alcotest.(check (float 0.0)) "eps_r, A route" a_only.Core.Select.eps_r sel.Core.Select.eps_r;
      (* the exact set is any rank(A) independent rows (Theorem 1), so
         beside its pins: its size is the rank, and its error is zero up
         to rounding *)
      let exact = Core.Pipeline.exact_selection setup in
      Alcotest.(check int) "exact size" 28 (Array.length exact.Core.Select.indices);
      Alcotest.(check int) "exact size = rank" exact.Core.Select.rank
        (Array.length exact.Core.Select.indices);
      Alcotest.(check bool) "exact eps_r <= 1e-12" true (exact.Core.Select.eps_r <= 1e-12);
      Alcotest.(check (float 0.0)) "exact eps_r" 0x1.068605f8b1389p-45 exact.Core.Select.eps_r;
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

(* bit pins on the streamed range finder, end to end through
   [sketch_representatives]: a tail-energy run that appends a second
   block and a fixed-rank run, plus a dense sketch whose small problem
   is square. Every kernel of the sketch (the Gaussian
   block, the projections, CholQR2, the small SVD, U = QZ) feeds these
   bits, so a rewrite of any of them that moves one bit shows here. *)
let fold_bits h a =
  Array.fold_left (fun h x -> Int64.add (Int64.mul h 31L) (Int64.bits_of_float x)) h a

let test_sketch_pinned () =
  let pool =
    Timing.Pool_stream.synthetic ~seed:4 ~decay:12.0 ~paths:500 ~segments:100 ~vars:60
      ~segs_per_path:5 ~vars_per_seg:3 ()
  in
  let pin name sketch ~width ~indices ~fold ~tail =
    let st =
      Core.Select.sketch_representatives ~sketch ~ops:(Timing.Pool_stream.op pool) ()
    in
    let svd = st.Core.Select.stream_svd in
    Alcotest.(check int) (name ^ " width") width st.Core.Select.sketch_rank_used;
    Alcotest.(check (array int)) (name ^ " indices") indices st.Core.Select.stream_indices;
    Alcotest.(check int64) (name ^ " s and u bits") fold
      (fold_bits (fold_bits 0L svd.Linalg.Svd.s) svd.Linalg.Svd.u.Linalg.Mat.data);
    Alcotest.(check int64) (name ^ " tail bits") tail
      (Int64.bits_of_float st.Core.Select.tail_fraction)
  in
  let d = Core.Select.default_sketch in
  pin "tail energy" d ~width:32
    ~indices:
      [| 22; 37; 113; 117; 130; 154; 183; 189; 190; 201; 241; 255; 268; 273; 276; 351;
         361; 374; 382; 387; 405; 415; 418; 481; 483 |]
    ~fold:3927482924851048154L ~tail:4567649073226401844L;
  pin "rank 12" { d with Core.Select.sketch_rank = Some 12 } ~width:12
    ~indices:[| 129; 146; 176; 183; 199; 374; 387; 418; 428; 433; 449 |]
    ~fold:(-6837487006880943483L) ~tail:4589503555846042863L;
  (* a first block as wide as A, so the small problem B is square *)
  let a = Linalg.Mat.init 18 12 (fun i j -> sin (float_of_int ((i * 31) + (j * 7) + (i * j)))) in
  let f = Linalg.Rsvd.factor ~rank:4 ~seed:5 a in
  Alcotest.(check int64) "square B: s and u bits" 2059369699749120818L
    (fold_bits (fold_bits 0L f.Linalg.Rsvd.s) f.Linalg.Rsvd.u.Linalg.Mat.data)

(* bit pins on demo90's path extraction: every path's gates, mu and
   sigma bits in discovery order, the truncation flag and the DFS visit
   count, for the whole pool and for a cap that truncates it. The
   dedup table and the pruning bound feed these numbers, so a rewrite
   of either that moves one path, bit or visit shows here. *)
let test_extraction_pinned () =
  with_data (fun dir ->
      let dm = Timing.Delay_model.build (demo90 dir) (Timing.Variation.make_model ~levels:3 ()) in
      let t_cons = Timing.Delay_model.nominal_critical_delay dm in
      let pin name ?max_paths ~count ~fold ~truncated ~visited () =
        let r = Timing.Path_extract.extract ?max_paths dm ~t_cons ~yield_threshold:0.99 in
        let h =
          List.fold_left
            (fun h (p : Timing.Path_extract.path) ->
              let h =
                Array.fold_left (fun h g -> Int64.add (Int64.mul h 31L) (Int64.of_int g)) h
                  p.gates
              in
              fold_bits h [| p.mu; p.sigma |])
            0L r.Timing.Path_extract.paths
        in
        Alcotest.(check int) (name ^ " paths") count (List.length r.Timing.Path_extract.paths);
        Alcotest.(check int64) (name ^ " gates, mu and sigma bits") fold h;
        Alcotest.(check bool) (name ^ " truncated") truncated r.Timing.Path_extract.truncated;
        Alcotest.(check int) (name ^ " visited nodes") visited r.Timing.Path_extract.visited_nodes
      in
      pin "whole pool" ~count:74 ~fold:1405918849994905476L ~truncated:false ~visited:920 ();
      pin "capped at 40" ~max_paths:40 ~count:40 ~fold:3605401723117068353L ~truncated:true ~visited:288 ())

(* bit pins on demo90's pool build: the bits of G, Sigma, A, mu_paths
   and mu_segments and the column order of the variables, for the whole
   pool and for a cap that truncates it. The variable index, the
   segment split and the G Sigma product feed these numbers, so a
   rewrite of any of them that moves one bit or column shows here. *)
let test_pool_build_pinned () =
  with_data (fun dir ->
      let dm = Timing.Delay_model.build (demo90 dir) (Timing.Variation.make_model ~levels:3 ()) in
      let t_cons = Timing.Delay_model.nominal_critical_delay dm in
      let fold_int h i = Int64.add (Int64.mul h 31L) (Int64.of_int i) in
      let pin name ?max_paths ~vars ~keys ~fold () =
        let r = Timing.Path_extract.extract ?max_paths dm ~t_cons ~yield_threshold:0.99 in
        let pool = Timing.Paths.build dm r.Timing.Path_extract.paths in
        let key_bits =
          Array.fold_left
            (fun h k ->
              match k with
              | Timing.Variation.Region { param; level; cell } ->
                let p = match param with Timing.Variation.Leff -> 0 | Timing.Variation.Vt -> 1 in
                fold_int (fold_int (fold_int h p) level) cell
              | Timing.Variation.Gate_random g -> fold_int (fold_int h 2) g)
            0L (Timing.Paths.var_keys pool)
        in
        let h =
          List.fold_left fold_bits 0L
            [
              (Timing.Paths.g_mat pool).Linalg.Mat.data;
              (Timing.Paths.sigma_mat pool).Linalg.Mat.data;
              (Timing.Paths.a_mat pool).Linalg.Mat.data;
              Timing.Paths.mu_paths pool;
              Timing.Paths.mu_segments pool;
            ]
        in
        Alcotest.(check int) (name ^ " vars") vars (Timing.Paths.num_vars pool);
        Alcotest.(check int64) (name ^ " var_keys order") keys key_bits;
        Alcotest.(check int64) (name ^ " G, Sigma, A and mu bits") fold h
      in
      pin "whole pool" ~vars:62 ~keys:(-6783490700683015097L) ~fold:(-1882726657829392019L) ();
      pin "capped at 40" ~max_paths:40 ~vars:52 ~keys:(-3092997237829983904L)
        ~fold:(-563366011879749655L) ())

let unit_tests =
  [
    ("golden: .bench parses", test_bench_golden);
    ("golden: verilog matches bench", test_verilog_matches_bench);
    ("golden: liberty parses", test_liberty_golden);
    ("golden: sdf writer bytes", test_sdf_writer_bytes);
    ("golden: pipeline runs", test_full_pipeline_on_golden);
    ("golden: zero level weight extracts", test_zero_level_weight);
    ("golden: rng stream", test_rng_stream_pinned);
    ("golden: streamed sketch", test_sketch_pinned);
    ("golden: demo90 extraction", test_extraction_pinned);
    ("golden: demo90 pool build", test_pool_build_pinned);
  ]

let suites =
  [
    ( "golden",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests );
  ]
