type lane = {
  mutable sent : int;
  mutable ok : int;
  mutable gave_up : int;     (* retries exhausted; allowed, counted *)
  mutable wrong : int;       (* ok:true with non-identical bits: must stay 0 *)
  mutable lat_ms : float list;
}

let eps = 0.05

(* the fault mix the soak runs under: every injector fires *)
let soak_spec =
  {
    Chaos.delay_ms = 1.0;
    jitter_ms = 2.0;
    partial_write = 0.3;
    truncate = 0.05;
    corrupt = 0.08;
    disconnect = 0.05;
    stall = 0.08;
    eintr_burst = 2;
  }

let p99 = function
  | [] -> 0.0
  | xs -> Stats.Descriptive.quantile (Array.of_list xs) 0.99

let run ?(oc = stdout) ?out profile =
  let quick = profile.Profile.name <> "full" in
  let n_dies = if quick then 64 else 256 in
  let lane_iters = if quick then 10 else 60 in
  let clean_iters = if quick then 40 else 200 in
  let fault_lanes = 3 in
  let batch = 8 in
  let bench_name = "s1423" in
  Printf.fprintf oc
    "E16: chaos soak (%s; %d fault lanes x %d requests through a faulty proxy, \
     %d clean requests, SIGHUP reload mid-soak)\n"
    bench_name fault_lanes lane_iters clean_iters;
  let setup = Table1.setup profile bench_name in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  let pool = setup.Core.Pipeline.pool in
  let make_artifact fingerprint = Soak.artifact ~fingerprint ~eps setup sel in
  let artifact = make_artifact "bench:e16 s1423" in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let mc = Timing.Monte_carlo.sample (Rng.create 16) pool ~n:n_dies in
  let clean = Linalg.Mat.select_cols (Timing.Monte_carlo.path_delays mc) rep in
  let config =
    { Serve.default_config with
      Serve.workers = 3; queue = 16; deadline = 2.0; idle_timeout = 30.0 }
  in
  let expected i0 k = Core.Predictor.predict_all p ~measured:(Soak.rows_of clean i0 k) in
  Soak.with_session artifact @@ fun soak ->
  let server_addr = Soak.addr soak in
  let store_path = Soak.artifact_path soak in
  let pid = Soak.spawn ~config ~reload_from:store_path soak in
  (* a server that accepts a connection has installed its signal
     handlers: only then may the proxy aim its SIGUSR1 storm at it *)
  let conn = Soak.connect soak in
  let proxy =
    Chaos.start ~seed:1616 ~eintr_pid:pid soak_spec
      ~listen:(Serve.Unix_sock (Filename.concat (Soak.dir soak) "chaos.sock"))
      ~upstream:server_addr
  in
  let proxy_addr = Chaos.bound_addr proxy in
  let finish () =
    (* ---- baseline: clean latency + throughput, no faults in the path *)
    let base = { sent = 0; ok = 0; gave_up = 0; wrong = 0; lat_ms = [] } in
    let reps = if quick then 20 else 60 in
    let want = expected 0 batch in
    let sub = Soak.rows_of clean 0 batch in
    let (), dt =
      Soak.time (fun () ->
          for _ = 1 to reps do
            base.sent <- base.sent + 1;
            let r, lat = Soak.time (fun () -> Serve.Client.predict conn sub) in
            (match r with
             | Ok (m, _) ->
               base.ok <- base.ok + 1;
               if not (Linalg.Mat.bits_equal m want) then base.wrong <- base.wrong + 1
             | Error _ -> base.gave_up <- base.gave_up + 1);
            base.lat_ms <- (lat *. 1000.0) :: base.lat_ms
          done)
    in
    Serve.Client.close conn;
    let throughput = float_of_int (batch * reps) /. dt in
    let p99_clean_ms = p99 base.lat_ms in
    Printf.fprintf oc
      "baseline: %d direct requests, %.0f dies/s, p99 %.2f ms\n%!" reps
      throughput p99_clean_ms;
    (* ---- soak: fault lanes hammer through the proxy with retries,
       a clean lane keeps talking straight to the server *)
    let retry =
      { Serve.Client.attempts = 6; base_delay = 0.02; max_delay = 0.5;
        connect_timeout = 5.0; deadline = 5.0 }
    in
    let fault_lane idx =
      let lane = { sent = 0; ok = 0; gave_up = 0; wrong = 0; lat_ms = [] } in
      let rng = Rng.create (4242 + idx) in
      let i0 = idx * batch in
      let want = expected i0 batch in
      let sub = Soak.rows_of clean i0 batch in
      let body () =
        for _ = 1 to lane_iters do
          lane.sent <- lane.sent + 1;
          match Serve.Client.predict_with_retry ~retry ~rng proxy_addr sub with
          | Ok (m, _) ->
            lane.ok <- lane.ok + 1;
            if not (Linalg.Mat.bits_equal m want) then lane.wrong <- lane.wrong + 1
          | Error _ -> lane.gave_up <- lane.gave_up + 1
        done
      in
      (lane, Thread.create body ())
    in
    let clean_done = Atomic.make 0 in
    let clean_lane () =
      let lane = { sent = 0; ok = 0; gave_up = 0; wrong = 0; lat_ms = [] } in
      let i0 = fault_lanes * batch in
      let want = expected i0 batch in
      let sub = Soak.rows_of clean i0 batch in
      let body () =
        let c = Serve.Client.connect server_addr in
        for _ = 1 to clean_iters do
          lane.sent <- lane.sent + 1;
          let r, lat = Soak.time (fun () -> Serve.Client.predict ~deadline:5.0 c sub) in
          (match r with
           | Ok (m, _) ->
             lane.ok <- lane.ok + 1;
             if not (Linalg.Mat.bits_equal m want) then lane.wrong <- lane.wrong + 1
           | Error _ -> lane.gave_up <- lane.gave_up + 1);
          lane.lat_ms <- (lat *. 1000.0) :: lane.lat_ms;
          Atomic.incr clean_done;
          Thread.delay 0.02
        done;
        Serve.Client.close c
      in
      (lane, Thread.create body ())
    in
    let lanes = List.init fault_lanes fault_lane in
    let cl, cl_thread = clean_lane () in
    (* ---- mid-soak hot reload: rewrite the artifact (same selection,
       new fingerprint) and SIGHUP the server while requests fly *)
    let deadline = Unix.gettimeofday () +. 120.0 in
    while Atomic.get clean_done < clean_iters / 2
          && Unix.gettimeofday () < deadline do
      Thread.delay 0.05
    done;
    (match Store.save store_path (make_artifact "bench:e16 s1423 v2") with
     | Ok () -> ()
     | Error e -> Core.Errors.raise_error e);
    Unix.kill pid Sys.sighup;
    Thread.delay 1.0;
    let reloads, reload_fingerprint_ok =
      match Soak.stats soak with
      | Ok resp ->
        let fp =
          match Serve.Wire.member "artifact" resp with
          | Some a ->
            (match Serve.Wire.member "fingerprint" a with
             | Some (Serve.Wire.String s) -> s
             | _ -> "")
          | None -> ""
        in
        (Soak.int_stat resp "reloads", fp = "bench:e16 s1423 v2")
      | Error _ -> (0, false)
    in
    Printf.fprintf oc "mid-soak SIGHUP: %d reload(s), fingerprint swapped: %b\n%!"
      reloads reload_fingerprint_ok;
    List.iter (fun (_, th) -> Thread.join th) lanes;
    Thread.join cl_thread;
    (* ---- a clean batch must still complete through the faulty proxy *)
    let final_retry = { retry with Serve.Client.attempts = 12 } in
    let final_batch_ok =
      match
        Serve.Client.predict_with_retry ~retry:final_retry
          ~rng:(Rng.create 99) proxy_addr sub
      with
      | Ok (m, _) -> Linalg.Mat.bits_equal m want
      | Error _ -> false
    in
    (* ---- drain: final counters, shutdown, reap the child *)
    let shed, timeouts =
      match Soak.stats soak with
      | Ok resp -> (Soak.int_stat resp "shed", Soak.int_stat resp "timeouts")
      | Error _ -> (0, 0)
    in
    Soak.drain soak;
    (lanes, cl, p99_clean_ms, throughput, reloads, reload_fingerprint_ok,
     final_batch_ok, shed, timeouts)
  in
  let ( lanes, cl, p99_clean_ms, throughput, reloads, reload_fingerprint_ok,
        final_batch_ok, shed, timeouts ) =
    Fun.protect ~finally:(fun () -> Chaos.stop proxy) finish
  in
  let server_exit_ok = Soak.reap soak pid = Soak.Clean in
  let sum f = List.fold_left (fun acc (l, _) -> acc + f l) 0 lanes in
  let requests_faulted = sum (fun l -> l.sent) in
  let ok_faulted = sum (fun l -> l.ok) in
  let gave_up = sum (fun l -> l.gave_up) in
  let wrong_answers = sum (fun l -> l.wrong) + cl.wrong in
  let p99_soak_ms = p99 cl.lat_ms in
  let pst = Chaos.stats proxy in
  let ok =
    wrong_answers = 0 && cl.gave_up = 0 && server_exit_ok && reloads >= 1
    && reload_fingerprint_ok && final_batch_ok
    && p99_soak_ms < 2000.0
  in
  Printf.fprintf oc
    "soak: %d faulted requests -> %d ok, %d gave up, %d WRONG; clean lane \
     %d/%d ok, p99 %.2f ms (baseline %.2f ms)\n"
    requests_faulted ok_faulted gave_up wrong_answers cl.ok cl.sent p99_soak_ms
    p99_clean_ms;
  Printf.fprintf oc
    "proxy: %d connections, %d corrupted, %d stalled, %d truncated, %d dropped, \
     %d EINTR signals\n"
    pst.Chaos.connections pst.Chaos.corrupted pst.Chaos.stalled
    pst.Chaos.truncated pst.Chaos.disconnected pst.Chaos.eintr_signals;
  Printf.fprintf oc
    "server: shed %d, timeouts %d, exit clean: %b; final batch through \
     faults: %b\n"
    shed timeouts server_exit_ok final_batch_ok;
  Printf.fprintf oc "E16 %s\n" (if ok then "ok" else "FAILED");
  flush oc;
  Soak.write ~oc ?out "E16"
    (let open Core.Report in
     [
       ("bench", String bench_name);
       ("faults", String (Chaos.to_string soak_spec));
       (* sent through the proxy *)
       ("requests_faulted", Int requests_faulted);
       ("ok_faulted", Int ok_faulted);
       ("gave_up", Int gave_up);
       ("wrong_answers", Int wrong_answers);
       (* the direct lane during the soak *)
       ("clean_requests", Int cl.sent);
       ("clean_failures", Int cl.gave_up);
       (* before the soak *)
       ("p99_clean_ms", Float p99_clean_ms);
       (* the direct lane while faults rage *)
       ("p99_soak_ms", Float p99_soak_ms);
       ("throughput_dies_per_s", Float throughput);
       ("reloads", Int reloads);
       ("reload_fingerprint_ok", Bool reload_fingerprint_ok);
       ("final_batch_ok", Bool final_batch_ok);
       ("server_exit_ok", Bool server_exit_ok);
       ("shed", Int shed);
       ("timeouts", Int timeouts);
       ("proxy_connections", Int pst.Chaos.connections);
       ("proxy_corrupted", Int pst.Chaos.corrupted);
       ("proxy_stalled", Int pst.Chaos.stalled);
       ("ok", Bool ok);
     ]);
  ok
