type quality_row = {
  qname : string;
  q_paths : int;
  q_vars : int;
  rank_exact : int;
  q_sketch_rank : int;
  r_matched : int;
  eps_exact : float;
  eps_sketch : float;
  worst_ratio : float;
  rms_exact : float;
  rms_sketch : float;
  rms_ratio : float;
  overlap : float;
  t_exact_s : float;
  t_sketch_s : float;
}

type scale_row = {
  s_paths : int;
  s_segments : int;
  s_vars : int;
  s_nnz : int;
  build_s : float;
  sketch_s : float;
  qr_s : float;
  total_s : float;
  s_sketch_rank : int;
  s_tail : float;
  s_selected : int;
}

let eps = 0.05

let ratio_gate = 1.25

(* wall-clock budget for the 50k-path sketched selection in the
   sketch-smoke gate: generous against slow CI hosts (typical is well
   under a second) while still catching an accidental densification,
   which would blow past it by orders of magnitude *)
let smoke_budget_s = 30.0

let overlap_fraction a b =
  if Array.length a = 0 then 1.0
  else begin
    let tbl = Hashtbl.create (Array.length a) in
    Array.iter (fun i -> Hashtbl.replace tbl i ()) a;
    let hit = Array.fold_left (fun acc i -> if Hashtbl.mem tbl i then acc + 1 else acc) 0 b in
    float_of_int hit /. float_of_int (Array.length a)
  end

let safe_ratio num den = num /. Float.max den 1e-12

(* Sketched-vs-exact quality on a pool where the dense exact engine is
   still feasible: both engines select at the same matched size r (the
   size Algorithm 1 picked under the exact engine at [eps]), so the
   worst-case (analytic eps_r) and RMS (Monte Carlo e2) columns compare
   bases, not budget choices. *)
let quality_on ~qname ~gates ~max_paths ~cseed ~mc_samples =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = gates; seed = cseed }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let setup = Core.Pipeline.prepare ~max_paths ~netlist:nl ~model () in
  let pool = setup.Core.Pipeline.pool in
  let sketch = { Core.Select.default_sketch with sketch_seed = cseed } in
  let sel_exact = Core.Pipeline.approximate_selection ~engine:Core.Select.Exact setup ~eps in
  let r = max 1 (Array.length sel_exact.Core.Select.indices) in
  let ex, t_exact_s =
    Soak.time (fun () ->
        Core.Select.select_with_size ~engine:Core.Select.Exact
          ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) ~r ())
  in
  let sk, t_sketch_s =
    Soak.time (fun () ->
        Core.Select.select_with_size ~engine:Core.Select.Sketched ~sketch
          ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) ~r ())
  in
  let kappa = Core.Config.default.Core.Config.kappa in
  let t_cons = setup.Core.Pipeline.t_cons in
  let eps_of sel = Core.Predictor.epsilon_r sel.Core.Select.predictor ~kappa ~t_cons in
  let rms_of sel =
    if Array.length (Core.Predictor.rem_indices sel.Core.Select.predictor) = 0 then 0.0
    else (Core.Pipeline.evaluate_selection ~mc_samples setup sel).Core.Evaluate.e2
  in
  let eps_exact = eps_of ex and eps_sketch = eps_of sk in
  let rms_exact = rms_of ex and rms_sketch = rms_of sk in
  {
    qname;
    q_paths = Timing.Paths.num_paths pool;
    q_vars = Timing.Paths.num_vars pool;
    rank_exact = ex.Core.Select.rank;
    q_sketch_rank = sk.Core.Select.rank;
    r_matched = r;
    eps_exact;
    eps_sketch;
    worst_ratio = safe_ratio eps_sketch eps_exact;
    rms_exact;
    rms_sketch;
    rms_ratio = safe_ratio rms_sketch rms_exact;
    overlap = overlap_fraction ex.Core.Select.indices sk.Core.Select.indices;
    t_exact_s;
    t_sketch_s;
  }

(* Wall-clock scaling on synthetic sparse pools: stream-build the CSR
   factors, sketch through the mat-mul operator, pivoted QR on the
   sketch. The densest allocation anywhere in this loop is a
   [paths x sketch_width] tall block. *)
let scale_on ~paths ~seed =
  let segments = max 200 (paths / 20) in
  let vars = 2000 in
  let pool, build_s =
    Soak.time (fun () ->
        Timing.Pool_stream.synthetic ~seed ~paths ~segments ~vars ~segs_per_path:8
          ~vars_per_seg:3 ())
  in
  let ops = Timing.Pool_stream.op pool in
  let eta = Core.Config.default.Core.Config.eta in
  let (f, tail), sketch_s =
    Soak.time (fun () ->
        Linalg.Rsvd.factor_op ~stop:(Tail_energy (eta *. eta)) ~seed ops)
  in
  let svd = Linalg.Rsvd.to_svd f in
  let r =
    max 1 (Core.Effective_rank.of_singular_values ~eta svd.Linalg.Svd.s)
  in
  let indices, qr_s = Soak.time (fun () -> Core.Subset_select.rows_from_svd svd ~r) in
  {
    s_paths = paths;
    s_segments = segments;
    s_vars = vars;
    s_nnz = Timing.Pool_stream.nnz pool;
    build_s;
    sketch_s;
    qr_s;
    total_s = build_s +. sketch_s +. qr_s;
    s_sketch_rank = Array.length svd.Linalg.Svd.s;
    s_tail = tail;
    s_selected = Array.length indices;
  }

let run ?(oc = stdout) ?out ?(smoke = false) profile =
  let full = profile.Profile.name = "full" in
  Printf.fprintf oc
    "E19: sketched selection -- quality vs the exact engine, then wall-clock\n\
     scaling on streamed sparse pools (gate: worst-case error ratio <= %.2fx)\n\n"
    ratio_gate;
  flush oc;
  let quality_specs =
    if smoke then [ ("q-800", 300, 800, 11) ]
    else if full then
      [ ("q-2500", 500, 2500, 11); ("q-5000", 900, 5000, 12); ("q-10000", 1400, 10_000, 13) ]
    else [ ("q-1200", 300, 1200, 11); ("q-4000", 700, 4000, 12); ("q-8000", 1100, 8000, 13) ]
  in
  let mc_samples = if smoke then 400 else profile.Profile.mc_samples in
  let quality =
    List.map
      (fun (qname, gates, max_paths, cseed) ->
        let row = quality_on ~qname ~gates ~max_paths ~cseed ~mc_samples in
        Printf.fprintf oc
          "%-8s %6d paths  r=%-3d  eps_r %.3f%%/%.3f%% (%.2fx)  rms %.3f%%/%.3f%% \
           (%.2fx)  overlap %.0f%%  svd %.2fs  sketch %.2fs\n"
          row.qname row.q_paths row.r_matched (100.0 *. row.eps_exact)
          (100.0 *. row.eps_sketch) row.worst_ratio (100.0 *. row.rms_exact)
          (100.0 *. row.rms_sketch) row.rms_ratio (100.0 *. row.overlap)
          row.t_exact_s row.t_sketch_s;
        flush oc;
        row)
      quality_specs
  in
  let scale_sizes =
    if smoke then [ 50_000 ]
    else if full then [ 10_000; 100_000; 300_000; 1_000_000 ]
    else [ 10_000; 100_000; 1_000_000 ]
  in
  Printf.fprintf oc "\n%10s %9s %9s %8s %8s %8s %8s  rank  tail      selected\n"
    "paths" "nnz" "build_s" "sketch_s" "qr_s" "total_s" "";
  let scaling =
    List.map
      (fun paths ->
        let row = scale_on ~paths ~seed:(0xe19 + paths) in
        Printf.fprintf oc "%10d %9d %9.2f %8.2f %8.2f %8.2f %8s  %4d  %.2e  %d\n"
          row.s_paths row.s_nnz row.build_s row.sketch_s row.qr_s row.total_s ""
          row.s_sketch_rank row.s_tail row.s_selected;
        flush oc;
        row)
      scale_sizes
  in
  let worst_ratio_max =
    List.fold_left (fun acc q -> Float.max acc q.worst_ratio) 0.0 quality
  in
  let budget_s = smoke_budget_s in
  let within_budget =
    List.for_all (fun s -> s.s_paths > 50_000 || s.total_s <= budget_s) scaling
  in
  let quality_ok = worst_ratio_max <= ratio_gate in
  let eta = Core.Config.default.Core.Config.eta in
  let tail_target = eta *. eta in
  let tails_ok = List.for_all (fun s -> s.s_tail <= tail_target) scaling in
  let ok = quality_ok && within_budget && tails_ok in
  let verdict b = if b then "pass" else "FAIL" in
  Printf.fprintf oc
    "\nquality gate: %s | wall budget (<=50k-path pools, %.0fs): %s | tails <= eta^2 \
     (%.2e): %s\n"
    (if quality_ok then
       Printf.sprintf "pass (worst ratio %.2fx <= %.2fx)" worst_ratio_max ratio_gate
     else Printf.sprintf "FAIL (worst ratio %.2fx > %.2fx)" worst_ratio_max ratio_gate)
    budget_s (verdict within_budget) tail_target (verdict tails_ok);
  flush oc;
  Soak.write ~oc ?out "E19"
    (let open Core.Report in
     [
       ("profile", String profile.Profile.name);
       ("eps", Float eps);
       ("ratio_gate", Float ratio_gate);
       ( "quality",
         List
           (List.map
              (fun q ->
                Obj
                  [
                    ("pool", String q.qname);
                    ("paths", Int q.q_paths);
                    ("vars", Int q.q_vars);
                    (* rank(A) from the exact SVD *)
                    ("rank_exact", Int q.rank_exact);
                    ("sketch_rank", Int q.q_sketch_rank);
                    (* the selection size both engines use *)
                    ("r_matched", Int q.r_matched);
                    (* Eqn (7)'s worst-case error *)
                    ("worst_case_eps_exact", Float q.eps_exact);
                    ("worst_case_eps_sketched", Float q.eps_sketch);
                    ("worst_case_ratio", Float q.worst_ratio);
                    (* Monte Carlo e2 *)
                    ("rms_exact", Float q.rms_exact);
                    ("rms_sketched", Float q.rms_sketch);
                    ("rms_ratio", Float q.rms_ratio);
                    (* the fraction of exact picks also picked *)
                    ("selected_set_overlap", Float q.overlap);
                    ("exact_svd_s", Float q.t_exact_s);
                    ("sketched_s", Float q.t_sketch_s);
                  ])
              quality) );
       ( "scaling",
         List
           (List.map
              (fun s ->
                Obj
                  [
                    ("paths", Int s.s_paths);
                    ("segments", Int s.s_segments);
                    ("vars", Int s.s_vars);
                    (* nonzeros across G and Sigma *)
                    ("nnz", Int s.s_nnz);
                    ("stream_build_s", Float s.build_s);
                    (* the range finder to the tail-energy stop *)
                    ("sketch_s", Float s.sketch_s);
                    ("pivoted_qr_s", Float s.qr_s);
                    ("total_s", Float s.total_s);
                    ("sketch_rank", Int s.s_sketch_rank);
                    (* the exact achieved fraction *)
                    ("tail_energy_fraction", Float s.s_tail);
                    ("selected", Int s.s_selected);
                  ])
              scaling) );
       ("worst_case_ratio_max", Float worst_ratio_max);
       ("budget_s", Float budget_s);
       ("within_budget", Bool within_budget);
       ("ok", Bool ok);
     ]);
  ok
