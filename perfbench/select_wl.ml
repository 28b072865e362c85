(* The two selection workloads: time to a selection, in-process.

   select_circuit is the paper's Table-1 row: prepare (SSTA, path
   extraction, yield Monte Carlo), Algorithm 1 on the dense pool (the
   Exact engine below Select.sketch_threshold rows), and the
   Monte-Carlo evaluation of the selection. The dense SVD dominates.

   select_stream is the million-path front end at its smallest size:
   a streamed sparse pool and the adaptive randomized sketch, whose
   restart loop (ROADMAP item 3) dominates. The pool's mat-mul operator
   is wrapped so the trace can separate operator time from the
   sketch's own. *)

open Common

type size = {
  circuit : string;
  circuit_scale : float;
  circuit_cap : int;
  yield_samples : int;
  mc_samples : int;
  stream_paths : int;
  stream_segments : int;
  stream_vars : int;
}

let eta = Core.Config.default.Core.Config.eta

(* One op: the whole Table-1 flow on a fixed netlist. Preparation
   keeps its default seed: its yield Monte Carlo sets the extraction
   threshold, so another seed would extract another pool and change the
   work. The workload seed draws the evaluation dies. *)
let circuit_op size ~seed (netlist, model) =
  let setup =
    Trace.span "pipeline.prepare" (fun () ->
        Core.Pipeline.prepare ~max_paths:size.circuit_cap
          ~yield_samples:size.yield_samples ~netlist ~model ())
  in
  let sel =
    Trace.span "pipeline.select" (fun () ->
        Core.Pipeline.approximate_selection ~engine:Core.Select.Auto setup ~eps)
  in
  Trace.count "select.evaluations" (float_of_int sel.Core.Select.evaluations);
  let m =
    Trace.span "pipeline.evaluate" (fun () ->
        Core.Pipeline.evaluate_selection ~mc_samples:size.mc_samples ~seed setup sel)
  in
  (setup, sel, m)

(* The synthetic pool is the fixed design, as the netlist is for
   select_circuit; the workload seed drives the sketch. At the library's
   default decay (24 columns) the rank-32 tail estimate sits at eta^2,
   so some sketch seeds stop the adaptive rank at 32 instead of 64 and
   select 27 paths instead of 40; at 28 every sketch seed tried (80 of
   them) stops at rank 64 with 44 selected, so the work per op does not
   move with the seed. Other pool seeds change the selected count. *)
let pool_seed = 1
let pool_decay = 28.0

(* One op: stream-build the pool, then sketch it through the wrapped
   operator. *)
let stream_op size ~seed =
  let pool =
    Trace.span "pool_stream.build" (fun () ->
        Timing.Pool_stream.synthetic ~seed:pool_seed ~decay:pool_decay ~paths:size.stream_paths
          ~segments:size.stream_segments ~vars:size.stream_vars ~segs_per_path:8
          ~vars_per_seg:3 ())
  in
  let base = Timing.Pool_stream.op pool in
  let calls = ref 0 and cols = ref 0 in
  let wrap f x =
    incr calls;
    cols := !cols + snd (Linalg.Mat.dims x);
    Trace.span "sparse.op" (fun () -> f x)
  in
  let ops =
    { base with Linalg.Rsvd.mul = wrap base.Linalg.Rsvd.mul; tmul = wrap base.Linalg.Rsvd.tmul }
  in
  let sketch = { Core.Select.default_sketch with Core.Select.sketch_seed = seed } in
  let st =
    Trace.span "sketch.total" (fun () -> Core.Select.sketch_representatives ~sketch ~ops ())
  in
  Trace.count "rsvd.op_calls" (float_of_int !calls);
  Trace.count "rsvd.op_cols" (float_of_int !cols);
  Trace.count "sparse.op_flops"
    (2.0 *. float_of_int (Timing.Pool_stream.nnz pool) *. float_of_int !cols);
  Trace.count "rsvd.sketch_rank" (float_of_int st.Core.Select.sketch_rank_used);
  st

let run_circuit size ~setups ~seed ~seconds ~traced =
  let preset =
    match Circuit.Benchmarks.find size.circuit with
    | Some p -> p
    | None -> invalid_arg ("unknown circuit preset " ^ size.circuit)
  in
  let warm_failed = ref 0 in
  let setup _ =
    let netlist = Circuit.Benchmarks.netlist ~scale:size.circuit_scale preset in
    let model =
      Timing.Variation.make_model ~levels:preset.Circuit.Benchmarks.region_levels ()
    in
    let inputs = (netlist, model) in
    let ((_, sel, _) as first) = circuit_op size ~seed inputs in
    if not (check "circuit.eps_r_within_eps" (sel.Core.Select.eps_r <= eps)) then
      incr warm_failed;
    (inputs, first)
  in
  let op (inputs, (_, ref_sel, _)) _id =
    let setup, sel, m = circuit_op size ~seed inputs in
    let same =
      check "circuit.indices_equal_warmup"
        (sel.Core.Select.indices = ref_sel.Core.Select.indices)
    in
    let within = check "circuit.eps_r_within_eps" (sel.Core.Select.eps_r <= eps) in
    let scored =
      check "circuit.evaluation_finite"
        (Float.is_finite m.Core.Evaluate.e1 && Float.is_finite m.Core.Evaluate.e2)
    in
    if same && within && scored then
      Some (Timing.Paths.num_paths setup.Core.Pipeline.pool)
    else None
  in
  let (_, (pipe, sel, _)), setup_s, plain, tr =
    drive ~setups ~seconds ~traced ~setup ~teardown:ignore ~op
  in
  let summary =
    [
      Printf.sprintf "select_circuit: %s scale %.2f, %d target paths"
        size.circuit size.circuit_scale
        (Timing.Paths.num_paths pipe.Core.Pipeline.pool);
      latency_line ~unit_:"target paths" plain;
    ]
  in
  match tr with
  | None ->
    end_to_end_result ~attempted:(plain.attempted + setups)
      ~failed:(plain.failed + !warm_failed) ~setup_s ~window:plain ~rss:(peak_rss_mb "self")
      ~selected:(Array.length sel.Core.Select.indices) ~error:sel.Core.Select.eps_r
      ~summary
  | Some tr ->
    (* the dense SVD of the op's A, replayed on its own *)
    let replay = tr.attempted + plain.attempted in
    Trace.set_op replay;
    let a = Timing.Paths.a_mat pipe.Core.Pipeline.pool in
    ignore (Trace.span "svd.factor" (fun () -> Linalg.Svd.factor a));
    let ops = tr.op_ids in
    per_layer_result ~attempted:(plain.attempted + tr.attempted + setups)
      ~failed:(plain.failed + tr.failed + !warm_failed) ~plain ~traced:tr ~summary
      [
        ("pipeline.prepare_ms", Trace.mean_ms ~ops "pipeline.prepare");
        ("pipeline.select_ms", Trace.mean_ms ~ops "pipeline.select");
        ("select.evaluations", Trace.mean_count ~ops "select.evaluations");
        ("pipeline.evaluate_ms", Trace.mean_ms ~ops "pipeline.evaluate");
        ("svd.factor_ms", Trace.mean_ms ~ops:[ replay ] "svd.factor");
      ]

(* Section 4.2's effective-rank residual of the sketched spectrum: the
   share of sum(sigma) beyond the selected rank, at most eta by
   construction. Unlike the probe-estimated tail energy it does not move
   with the sketch seed. *)
let spectral_residual st =
  let s = st.Core.Select.stream_svd.Linalg.Svd.s in
  let r = Array.length st.Core.Select.stream_indices in
  let total = Array.fold_left ( +. ) 0.0 s in
  let kept = ref 0.0 in
  for i = 0 to r - 1 do
    kept := !kept +. s.(i)
  done;
  1.0 -. (!kept /. total)

let run_stream size ~setups ~seed ~seconds ~traced =
  let warm_failed = ref 0 in
  let setup _ =
    let st = stream_op size ~seed in
    if
      not
        (check "stream.tail_within_eta2" (st.Core.Select.tail_fraction <= eta *. eta))
    then incr warm_failed;
    st
  in
  let op ref_st _id =
    let st = stream_op size ~seed in
    let same =
      check "stream.indices_equal_warmup"
        (st.Core.Select.stream_indices = ref_st.Core.Select.stream_indices)
    in
    let within =
      check "stream.tail_within_eta2" (st.Core.Select.tail_fraction <= eta *. eta)
    in
    if same && within then Some size.stream_paths else None
  in
  let st, setup_s, plain, tr = drive ~setups ~seconds ~traced ~setup ~teardown:ignore ~op in
  let summary =
    [
      Printf.sprintf
        "select_stream: %d paths, %d segments, %d vars; sketch rank %d, tail energy \
         %.3g, %d selected"
        size.stream_paths size.stream_segments size.stream_vars
        st.Core.Select.sketch_rank_used st.Core.Select.tail_fraction
        (Array.length st.Core.Select.stream_indices);
      latency_line ~unit_:"target paths" plain;
    ]
  in
  match tr with
  | None ->
    end_to_end_result ~attempted:(plain.attempted + setups)
      ~failed:(plain.failed + !warm_failed) ~setup_s ~window:plain ~rss:(peak_rss_mb "self")
      ~selected:(Array.length st.Core.Select.stream_indices)
      ~error:(spectral_residual st) ~summary
  | Some tr ->
    let ops = tr.op_ids in
    let total = Trace.mean_ms ~ops "sketch.total" in
    let sparse = Trace.mean_ms ~ops "sparse.op" in
    per_layer_result ~attempted:(plain.attempted + tr.attempted + setups)
      ~failed:(plain.failed + tr.failed + !warm_failed) ~plain ~traced:tr ~summary
      [
        ("pool_stream.build_ms", Trace.mean_ms ~ops "pool_stream.build");
        ("sketch.total_ms", total);
        ("sparse.op_ms", sparse);
        (* by construction: the only spans inside sketch.total are the
           wrapped operator calls *)
        ("sketch.self_ms", total -. sparse);
        ("rsvd.op_calls", Trace.mean_count ~ops "rsvd.op_calls");
        ("rsvd.op_cols", Trace.mean_count ~ops "rsvd.op_cols");
        ("sparse.op_flops", Trace.mean_count ~ops "sparse.op_flops");
        ("rsvd.sketch_rank", Trace.mean_count ~ops "rsvd.sketch_rank");
      ]
