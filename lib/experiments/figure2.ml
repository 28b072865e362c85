type series = {
  label : string;
  values : float array;
  effective_rank : int;
  rank : int;
}

let series_for profile preset ~random_boost =
  let scale = profile.Profile.scale_of preset in
  let netlist = Circuit.Benchmarks.netlist ~scale preset in
  let model =
    Timing.Variation.make_model ~levels:preset.Circuit.Benchmarks.region_levels
      ~random_boost ()
  in
  let setup =
    Core.Pipeline.prepare ~max_paths:profile.Profile.max_paths
      ~yield_samples:profile.Profile.yield_samples ~netlist ~model ()
  in
  let a = Timing.Paths.a_mat setup.Core.Pipeline.pool in
  let svd = Linalg.Svd.factor ~vectors:Values a in
  let s = svd.Linalg.Svd.s in
  ( Core.Effective_rank.normalized_spectrum s,
    Core.Effective_rank.of_singular_values ~eta:0.05 s,
    Linalg.Svd.rank svd )

let compute ?(k = 30) profile =
  let preset = Table1.preset "s1423" in
  List.map
    (fun (random_boost, label) ->
      let spectrum, effective_rank, rank =
        series_for profile preset ~random_boost
      in
      let values = Array.sub spectrum 0 (min k (Array.length spectrum)) in
      { label; values; effective_rank; rank })
    [ (1.0, "(a) baseline"); (3.0, "(b) 3x random sensitivity") ]

(* log-scale ASCII plot: one row per decade between the max and min of
   the plotted values *)
let plot oc (s : series) =
  Printf.fprintf oc "\n%s  [rank %d, effective rank (eta=5%%) %d]\n" s.label s.rank
    s.effective_rank;
  let vmax = Array.fold_left Float.max 1e-300 s.values in
  let vmin =
    Array.fold_left (fun acc v -> if v > 1e-14 then Float.min acc v else acc) vmax
      s.values
  in
  let top = Float.ceil (log10 vmax) in
  let bottom = Float.floor (log10 (Float.max 1e-14 vmin)) in
  let levels = int_of_float (top -. bottom) in
  let rows = max 4 (min 10 levels) in
  for row = 0 to rows - 1 do
    let hi = top -. (float_of_int row *. (top -. bottom) /. float_of_int rows) in
    let lo = top -. (float_of_int (row + 1) *. (top -. bottom) /. float_of_int rows) in
    Printf.fprintf oc "  1e%+03.0f |" hi;
    Array.iter
      (fun v ->
        let lv = if v <= 1e-14 then bottom -. 1.0 else log10 v in
        output_char oc (if lv <= hi && lv > lo then '*' else ' ');
        output_char oc ' ')
      s.values;
    output_char oc '\n'
  done;
  Printf.fprintf oc "        +%s\n" (String.make (2 * Array.length s.values) '-');
  Printf.fprintf oc "         index 1..%d (normalized singular values, log scale)\n"
    (Array.length s.values);
  Printf.fprintf oc "  values:";
  Array.iteri
    (fun i v -> if i < 10 then Printf.fprintf oc " %.3g" v)
    s.values;
  Printf.fprintf oc " ...\n"

let run ?(oc = stdout) profile =
  Printf.fprintf oc
    "Figure 2: normalized singular values of A (s1423-like, first 30)\n";
  let series = compute profile in
  List.iter (plot oc) series;
  (match series with
   | [ a; b ] ->
     Printf.fprintf oc
       "\nDecay comparison: baseline needs %d effective dims, 3x-random needs %d \
        (paper: the boosted spectrum decays visibly slower).\n"
       a.effective_rank b.effective_rank
   | _ -> ());
  flush oc;
  series
