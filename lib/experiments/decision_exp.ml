type result = {
  gates : int;
  n_paths : int;
  n_vars : int;
  t_cons : float;
  is_samples : int;
  is_p_fail : float;
  is_std_err : float;
  is_sn_p_fail : float;
  is_ess : float;
  is_hits : int;
  shift_norm : float;
  mc_samples : int;
  mc_p_fail : float;
  mc_std_err : float;
  mc_hits : int;
  agreement_z : float;
  sample_reduction : float;
  t_clk : float;
  tune_dies : int;
  tune_feasible : int;
  tune_infeasible : int;
  tune_mean_cost : float;
  tune_max_cost : float;
  tune_all_exact : bool;
  yield_requests : int;
  tune_requests : int;
  wrong_answers : int;
  request_failures : int;
  infeasible_code_ok : bool;
  server_exit_ok : bool;
  ok : bool;
}

let eps = 0.05
let pfail_target = 1e-4
let reduction_gate = 50.0
let agreement_gate = 3.0

(* served floats travel through %.17g JSON, which round-trips doubles
   exactly: anything short of identical bits is a wire or dispatch bug *)
let floats_identical got want =
  let row xs = Linalg.Mat.of_arrays [| Array.of_list xs |] in
  Linalg.Mat.bits_equal (row got) (row want)

(* the tunable-buffer menu every die shares: each path is driven by
   exactly one of four buffers (round-robin), each buffer offering
   four discrete levels trading negative delay offset against cost *)
let buffer_menu n_paths =
  let levels =
    [|
      { Tune.offset_ps = 0.0; cost = 0.0 };
      { Tune.offset_ps = -15.0; cost = 1.0 };
      { Tune.offset_ps = -30.0; cost = 2.5 };
      { Tune.offset_ps = -45.0; cost = 4.5 };
    |]
  in
  Array.init 4 (fun b ->
      let paths =
        Array.of_list
          (List.filter
             (fun p -> p mod 4 = b)
             (List.init n_paths (fun p -> p)))
      in
      { Tune.paths; levels })

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int n)))

let run ?(oc = stdout) ?out profile =
  Soak.single_domain ();
  let quick = profile.Profile.name <> "full" in
  let is_samples = if quick then 16_384 else 65_536 in
  let mc_samples = if quick then 400_000 else 2_000_000 in
  let tune_dies = if quick then 48 else 128 in
  let yield_reqs = if quick then 6 else 12 in
  let tune_reqs = if quick then 5 else 10 in
  let tune_batch = 8 in
  Printf.fprintf oc
    "E18: decision workloads (generated circuit; IS %d vs MC %d samples at \
     union-bound p_fail %g; %d dies tuned; yield/tune served through the \
     chaos proxy)\n%!"
    is_samples mc_samples pfail_target tune_dies;
  (* ---- the bench: a small generated netlist whose path pool keeps
     the decision problems honest (shared segments, correlated A) but
     the brute-force MC reference tractable *)
  let params =
    {
      Circuit.Generator.default with
      Circuit.Generator.num_gates = 150;
      num_inputs = 16;
      num_outputs = 12;
      depth = 10;
      seed = 7;
    }
  in
  let netlist = Circuit.Generator.generate params in
  let model = Timing.Variation.make_model ~levels:2 () in
  let setup = Core.Pipeline.prepare ~max_paths:48 ~netlist ~model () in
  let pool = setup.Core.Pipeline.pool in
  let a = Timing.Paths.a_mat pool in
  let mu = Timing.Paths.mu_paths pool in
  let n_paths, n_vars = Linalg.Mat.dims a in
  (* calibrate the constraint so the union bound sits exactly at the
     target: the true failure probability is then <= 1e-4 by the bound *)
  let t_cons = Yield.calibrate_t_cons ~a ~mu ~target:pfail_target in
  Printf.fprintf oc
    "bench: %d paths, %d variables; t_cons %.2f ps (union-bound %g)\n%!"
    n_paths n_vars t_cons pfail_target;
  (* ---- yield: importance sampling vs the brute-force reference *)
  let is_est =
    Yield.importance ~a ~mu ~t_cons ~rng:(Rng.create 42) ~samples:is_samples ()
  in
  let mc_est =
    Yield.brute_force ~a ~mu ~t_cons ~rng:(Rng.create 43) ~samples:mc_samples ()
  in
  let agreement = Yield.agreement_z is_est mc_est in
  let reduction = Yield.sample_reduction is_est in
  Printf.fprintf oc
    "yield: IS p_fail %.3e +- %.1e (%d/%d hits, ess %.0f, shift %.2f) vs MC \
     %.3e +- %.1e (%d/%d hits): z = %.2f, %.0fx fewer samples at equal \
     confidence\n%!"
    is_est.Yield.p_fail is_est.Yield.std_err is_est.Yield.hits is_samples
    is_est.Yield.ess is_est.Yield.shift_norm mc_est.Yield.p_fail
    mc_est.Yield.std_err mc_est.Yield.hits mc_samples agreement reduction;
  (* ---- tune: configure a die population against a clock target
     drawn from its own max-delay distribution, so some dies pass
     untouched, most need buffer pulls, and the slowest are infeasible
     even at maximum offsets *)
  let dies =
    Timing.Monte_carlo.path_delays
      (Timing.Monte_carlo.sample (Rng.create 1805) pool ~n:tune_dies)
  in
  let maxes =
    Array.init tune_dies (fun i ->
        let row = Linalg.Mat.row dies i in
        Array.fold_left Float.max Float.neg_infinity row)
  in
  let sorted = Array.copy maxes in
  Array.sort Float.compare sorted;
  let t_clk = percentile sorted 0.5 in
  let buffers = buffer_menu n_paths in
  let solved =
    Array.init tune_dies (fun i ->
        Tune.solve { Tune.delays = Linalg.Mat.row dies i; t_clk; buffers })
  in
  let feasible = ref [] and infeasible = ref 0 and all_exact = ref true in
  Array.iteri
    (fun i r ->
      match r with
      | Tune.Feasible asg ->
        feasible := (i, asg) :: !feasible;
        if not asg.Tune.exact then all_exact := false
      | Tune.Infeasible _ -> incr infeasible)
    solved;
  let feasible = List.rev !feasible in
  let n_feasible = List.length feasible in
  let costs = List.map (fun (_, (asg : Tune.assignment)) -> asg.Tune.cost) feasible in
  let mean_cost =
    if n_feasible = 0 then Float.nan
    else List.fold_left ( +. ) 0.0 costs /. float_of_int n_feasible
  in
  let max_cost = List.fold_left Float.max 0.0 costs in
  Printf.fprintf oc
    "tune: t_clk %.2f ps (median die): %d/%d feasible (%d infeasible), mean \
     cost %.2f, max %.2f, exact %b\n%!"
    t_clk n_feasible tune_dies !infeasible mean_cost max_cost !all_exact;
  (* ---- serving: the same answers over a live server through a
     faulty link, bit-compared against local recomputation *)
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  let artifact =
    Store.of_selection ~fingerprint:"bench:e18 generated"
      ~n_segments:(Timing.Paths.num_segments pool)
      ~t_cons ~eps ~a ~mu sel
  in
  let predictor = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices predictor in
  let rem = Core.Predictor.rem_indices predictor in
  let config =
    { Serve.default_config with Serve.workers = 2; deadline = 30.0;
      idle_timeout = 60.0 }
  in
  Soak.with_session artifact @@ fun soak ->
  let pid = Soak.spawn ~config soak in
  let spec =
    {
      Chaos.none with
      Chaos.delay_ms = 0.5;
      jitter_ms = 1.0;
      partial_write = 0.15;
      corrupt = 0.03;
      disconnect = 0.02;
    }
  in
  let proxy =
    Chaos.start ~seed:1818 ~eintr_pid:pid spec
      ~listen:(Serve.Unix_sock (Filename.concat (Soak.dir soak) "chaos.sock"))
      ~upstream:(Soak.addr soak)
  in
  let proxy_addr = Chaos.bound_addr proxy in
  let retry =
    { Serve.Client.default_retry with Serve.Client.attempts = 8 }
  in
  let rng = Rng.create 1881 in
  let wrong = ref 0 and failures = ref 0 in
  let send req =
    match Serve.Client.request_with_retry ~retry ~rng proxy_addr req with
    | Ok resp -> Some resp
    | Error _ ->
      incr failures;
      None
  in
  let check_yield ~meth ~samples ~seed =
    match send (Serve.Client.yield_request ~samples ~seed ~meth ()) with
    | None -> ()
    | Some resp ->
      if Serve.Wire.member "ok" resp <> Some (Serve.Wire.Bool true) then
        incr failures
      else begin
        let est =
          let rng = Rng.create seed in
          match meth with
          | `Is -> Yield.importance ~a ~mu ~t_cons ~rng ~samples ()
          | `Mc -> Yield.brute_force ~a ~mu ~t_cons ~rng ~samples ()
        in
        let got =
          List.map (Soak.float_member resp)
            [ "t_cons"; "p_fail"; "sn_p_fail"; "std_err"; "sn_std_err"; "ess";
              "shift_norm" ]
        in
        let good =
          floats_identical got
            [ est.Yield.t_cons; est.Yield.p_fail; est.Yield.sn_p_fail;
              est.Yield.std_err; est.Yield.sn_std_err; est.Yield.ess;
              est.Yield.shift_norm ]
          && Soak.int_member resp "samples" = est.Yield.samples
          && Soak.int_member resp "hits" = est.Yield.hits
          && Soak.int_member resp "dominant" = est.Yield.dominant
        in
        if not good then incr wrong
      end
  in
  (* the serving tune check mirrors the server's own pipeline: predict
     the unmeasured paths from the measured ones, scatter to a full
     die, solve — the response must match bit for bit *)
  let local_tune measured =
    let n_dies, _ = Linalg.Mat.dims measured in
    let pred = Core.Predictor.predict_all predictor ~measured in
    let full = Array.make_matrix n_dies n_paths 0.0 in
    for i = 0 to n_dies - 1 do
      Array.iteri (fun j p -> full.(i).(p) <- Linalg.Mat.get measured i j) rep;
      Array.iteri (fun j p -> full.(i).(p) <- Linalg.Mat.get pred i j) rem
    done;
    Array.init n_dies (fun i ->
        Tune.solve { Tune.delays = full.(i); t_clk = t_cons; buffers })
  in
  let check_tune measured =
    match
      send (Serve.Client.tune_request ~t_clk:t_cons ~buffers ~measured ())
    with
    | None -> ()
    | Some resp ->
      if Serve.Wire.member "ok" resp <> Some (Serve.Wire.Bool true) then
        incr failures
      else begin
        let want = local_tune measured in
        let rows =
          match Serve.Wire.member "results" resp with
          | Some (Serve.Wire.List l) -> Array.of_list l
          | _ -> [||]
        in
        let good =
          Array.length rows = Array.length want
          && Array.for_all2
               (fun row w ->
                 match w with
                 | Tune.Infeasible _ -> false
                 | Tune.Feasible asg ->
                   let levels_ok =
                     match Serve.Wire.member "levels" row with
                     | Some (Serve.Wire.List ls) ->
                       let got =
                         List.filter_map
                           (function Serve.Wire.Int n -> Some n | _ -> None)
                           ls
                       in
                       got = Array.to_list asg.Tune.levels
                     | _ -> false
                   in
                   levels_ok
                   && floats_identical
                        [ Soak.float_member row "cost"; Soak.float_member row "slack_ps" ]
                        [ asg.Tune.cost; asg.Tune.slack_ps ]
                   && Serve.Wire.member "exact" row
                      = Some (Serve.Wire.Bool asg.Tune.exact))
               rows want
        in
        if not good then incr wrong
      end
  in
  let infeasible_code_ok = ref false in
  let finish () =
    for k = 0 to yield_reqs - 1 do
      let meth = if k mod 3 = 2 then `Mc else `Is in
      check_yield ~meth ~samples:(4096 + (1024 * k)) ~seed:(100 + k)
    done;
    (* measured batches drawn from feasible dies only: one infeasible
       die fails a whole tune request by design, checked separately *)
    let mc2 =
      Timing.Monte_carlo.path_delays
        (Timing.Monte_carlo.sample (Rng.create 1806) pool
           ~n:(tune_reqs * tune_batch))
    in
    for k = 0 to tune_reqs - 1 do
      let rows =
        Linalg.Mat.init tune_batch n_paths (fun i j ->
            Linalg.Mat.get mc2 ((k * tune_batch) + i) j)
      in
      let measured = Linalg.Mat.select_cols rows rep in
      (* t_clk = t_cons: calibrated so failure is rare, every batch
         feasible without any buffer pull *)
      check_tune measured
    done;
    (* the typed-infeasibility path: a clock no offset can reach must
       answer the semantic code 65, not a transport error *)
    let measured = Linalg.Mat.select_cols dies rep in
    let one =
      Linalg.Mat.init 1 (Array.length rep) (fun _ j ->
          Linalg.Mat.get measured 0 j)
    in
    (match
       send
         (Serve.Client.tune_request ~t_clk:1.0 ~buffers ~measured:one ())
     with
     | None -> ()
     | Some resp ->
       infeasible_code_ok :=
         Serve.Wire.member "ok" resp = Some (Serve.Wire.Bool false)
         && Soak.int_member resp "code" = 65);
    Soak.drain soak
  in
  Fun.protect ~finally:(fun () -> Chaos.stop proxy) finish;
  let server_exit_ok = Soak.reap soak pid = Soak.Clean in
  Printf.fprintf oc
    "serving: %d yield + %d tune requests through the chaos proxy: %d wrong, \
     %d failed; infeasible -> code 65: %b; server exit clean: %b\n%!"
    yield_reqs tune_reqs !wrong !failures !infeasible_code_ok server_exit_ok;
  let ok =
    is_est.Yield.hits > 0 && mc_est.Yield.hits > 0
    && Float.is_finite agreement
    && agreement <= agreement_gate
    && Float.is_finite reduction
    && reduction >= reduction_gate
    && n_feasible >= 1 && !infeasible >= 1 && !all_exact
    && !wrong = 0 && !failures = 0 && !infeasible_code_ok && server_exit_ok
  in
  Printf.fprintf oc "E18 %s\n" (if ok then "ok" else "FAILED");
  flush oc;
  let result =
    {
      gates = params.Circuit.Generator.num_gates;
      n_paths;
      n_vars;
      t_cons;
      is_samples;
      is_p_fail = is_est.Yield.p_fail;
      is_std_err = is_est.Yield.std_err;
      is_sn_p_fail = is_est.Yield.sn_p_fail;
      is_ess = is_est.Yield.ess;
      is_hits = is_est.Yield.hits;
      shift_norm = is_est.Yield.shift_norm;
      mc_samples;
      mc_p_fail = mc_est.Yield.p_fail;
      mc_std_err = mc_est.Yield.std_err;
      mc_hits = mc_est.Yield.hits;
      agreement_z = agreement;
      sample_reduction = reduction;
      t_clk;
      tune_dies;
      tune_feasible = n_feasible;
      tune_infeasible = !infeasible;
      tune_mean_cost = mean_cost;
      tune_max_cost = max_cost;
      tune_all_exact = !all_exact;
      yield_requests = yield_reqs;
      tune_requests = tune_reqs;
      wrong_answers = !wrong;
      request_failures = !failures;
      infeasible_code_ok = !infeasible_code_ok;
      server_exit_ok;
      ok;
    }
  in
  Soak.write ~oc ?out "E18"
    (let open Core.Report in
     [
       ("gates", Int result.gates);
       ("n_paths", Int result.n_paths);
       ("n_vars", Int result.n_vars);
       ("pfail_target", Float pfail_target);
       ("t_cons", Float result.t_cons);
       ( "yield",
         Obj
           [
             ("is_samples", Int result.is_samples);
             ("is_p_fail", Float result.is_p_fail);
             ("is_std_err", Float result.is_std_err);
             ("is_sn_p_fail", Float result.is_sn_p_fail);
             ("is_ess", Float result.is_ess);
             ("is_hits", Int result.is_hits);
             ("shift_norm", Float result.shift_norm);
             ("mc_samples", Int result.mc_samples);
             ("mc_p_fail", Float result.mc_p_fail);
             ("mc_std_err", Float result.mc_std_err);
             ("mc_hits", Int result.mc_hits);
             ("agreement_z", Float result.agreement_z);
             ("agreement_gate", Float agreement_gate);
             ("sample_reduction", Float result.sample_reduction);
             ("reduction_gate", Float reduction_gate);
           ] );
       ( "tune",
         Obj
           [
             ("t_clk", Float result.t_clk);
             ("dies", Int result.tune_dies);
             ("feasible", Int result.tune_feasible);
             ("infeasible", Int result.tune_infeasible);
             ("mean_cost", Float result.tune_mean_cost);
             ("max_cost", Float result.tune_max_cost);
             ("all_exact", Bool result.tune_all_exact);
           ] );
       ( "serving",
         Obj
           [
             ("yield_requests", Int result.yield_requests);
             ("tune_requests", Int result.tune_requests);
             ("wrong_answers", Int result.wrong_answers);
             ("request_failures", Int result.request_failures);
             ("infeasible_code_ok", Bool result.infeasible_code_ok);
             ("server_exit_ok", Bool result.server_exit_ok);
           ] );
       ("ok", Bool result.ok);
     ]);
  result
