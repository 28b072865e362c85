let eps = 0.05

(* restart-to-first-answer budget: artifact load + checkpoint load + WAL
   replay + listen. One reselect cooldown (the monitor's 5 s default —
   recovery replays without reselecting, so that is the only pacing a
   crash can add) plus startup margin. *)
let recovery_bound_s = 10.0

let run ?(oc = stdout) ?out profile =
  let quick = profile.Profile.name <> "full" in
  let cycles = if quick then 6 else 20 in
  let batch = 8 in
  let stream_rows = 1024 in
  let final_batches = 10 in
  let bench_name = "s1423" in
  Printf.fprintf oc
    "E20: kill/recovery soak (%s; %d SIGKILL->restart cycles under live \
     observe+predict traffic, WAL + checkpoint recovery)\n%!"
    bench_name cycles;
  (* the killer lands mid-request by design; writes into the dead
     server's socket must surface as EPIPE errors, not kill this
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let setup = Table1.setup profile bench_name in
  let sel = Core.Pipeline.approximate_selection setup ~eps in
  let pool = setup.Core.Pipeline.pool in
  let artifact = Soak.artifact ~fingerprint:"bench:e20 s1423" ~eps setup sel in
  let n_paths = artifact.Store.n_paths in
  Soak.with_session artifact @@ fun soak ->
  let store_path = Soak.artifact_path soak in
  let wal_dir = Filename.concat (Soak.dir soak) "wal" in
  (* the soak streams healthy dies only: push the drift thresholds out
     of reach so no background re-selection can swap the model under
     the bit-exactness gates (the detector still runs — its cusum and
     var_ratio are part of the recovered-state comparison) *)
  let monitor_cfg =
    {
      Serve.Monitor.default_config with
      Serve.Monitor.calibrate = 16;
      min_dies = 64;
      buffer = 128;
      drift =
        {
          Stats.Drift.default_config with
          Stats.Drift.warn = 1e6;
          drift = 1e9;
          var_ratio = 1e9;
        };
    }
  in
  (* small checkpoint interval and segments so the soak actually crosses
     checkpoint writes, rotations and prunes, not just appends *)
  let durability =
    {
      Serve.wal_dir;
      checkpoint_every = 8;
      wal_segment_bytes = 32768;
      wal_retain = 2;
    }
  in
  let config =
    { Serve.default_config with
      Serve.workers = 2; deadline = 10.0; idle_timeout = 60.0;
      monitor = Some monitor_cfg; durability = Some durability }
  in
  let predictor = Store.predictor artifact in
  let robust = Store.robust artifact in
  let rep = Core.Predictor.rep_indices predictor in
  let rem = Core.Predictor.rem_indices predictor in
  let dies =
    Timing.Monte_carlo.path_delays
      (Timing.Monte_carlo.sample (Rng.create 2001) pool ~n:stream_rows)
  in
  let holdout =
    Timing.Monte_carlo.path_delays
      (Timing.Monte_carlo.sample (Rng.create 2002) pool ~n:16)
  in
  let hold_measured = Linalg.Mat.select_cols holdout rep in
  let hold_expected = Core.Predictor.predict_all predictor ~measured:hold_measured in
  let batch_at idx =
    let m =
      Linalg.Mat.init batch n_paths (fun i j ->
          Linalg.Mat.get dies ((idx + i) mod stream_rows) j)
    in
    (Linalg.Mat.select_cols m rep, Linalg.Mat.select_cols m rem)
  in
  (* Journal-content reconstruction. An acked batch is journaled — the
     fsync precedes the ack — and batches ride one connection under the
     server's journal lock, so acked batches appear in the journal in
     send order. The one ambiguity per server incarnation is its final,
     unacked batch: the kill may have landed before the append, after
     the fsync with the ack lost, or mid-append leaving a torn tail
     that recovery truncates to a record boundary. The journal
     high-water mark read at the next boot resolves it exactly: if
     [journaled] then exceeds the known count by [k], the first [k]
     records of that pending tail made it to disk. *)
  let known = ref [] in (* resolved journaled batches, newest first *)
  let known_n = ref 0 in
  let pending_tail = ref [] in (* records of the one unacked batch *)
  let batches_sent = ref 0 in
  let acked_dies = ref 0 in
  let wrong = ref 0 in
  let clean_failures = ref 0 in
  let kills = ref 0 in
  let generations = ref [] in
  let max_recovery = ref 0.0 in
  let die_idx = ref 0 in
  let spawn_server () = Soak.spawn ~config ~reload_from:store_path soak in
  let send_batch conn ~expect_ack =
    let measured, truth = batch_at !die_idx in
    (* the server's own intake, so the parent can rebuild the journal's
       record contents from the send stream alone (see the
       journal-content reconstruction note above) *)
    let _, expected =
      Serve.observations ~predictor ~robust ~measured ~truth ~wafer:""
    in
    die_idx := (!die_idx + batch) mod stream_rows;
    incr batches_sent;
    match Serve.Client.observe conn ~measured ~truth with
    | Ok resp ->
      let queued = Soak.int_stat resp "queued" in
      let journaled = Serve.Wire.member "journaled" resp in
      if journaled <> Some (Serve.Wire.Bool true) then incr wrong;
      if queued <> List.length expected then incr wrong;
      if List.length (Serve.Client.die_statuses resp) <> batch then incr wrong;
      known := expected :: !known;
      known_n := !known_n + List.length expected;
      acked_dies := !acked_dies + queued;
      true
    | Error _ ->
      (* at most one unacked batch per incarnation: this send ends the
         cycle's traffic loop *)
      if !pending_tail = [] then pending_tail := expected else incr wrong;
      if expect_ack then incr clean_failures;
      false
  in
  (* [resp] is a stats answer from a freshly recovered server: its
     journal high-water mark settles how much of the previous
     incarnation's unacked tail survived the kill *)
  let resolve_tail resp =
    match Serve.Wire.member "durability" resp with
    | Some dur ->
      let k = Soak.int_stat dur "journaled" - !known_n in
      let tail = !pending_tail in
      if k < 0 || k > List.length tail then incr wrong
      else if k > 0 then begin
        known := List.filteri (fun i _ -> i < k) tail :: !known;
        known_n := !known_n + k
      end;
      pending_tail := []
    | None -> incr wrong
  in
  let check_predict conn ~expect_ack =
    match Serve.Client.predict conn hold_measured with
    | Ok (m, _) ->
      if not (Linalg.Mat.bits_equal m hold_expected) then incr wrong;
      true
    | Error _ ->
      if expect_ack then incr clean_failures;
      false
  in
  let connect_and_measure t0 =
    match Soak.connect soak with
    | conn ->
      if Serve.Client.ping conn then begin
        let dt = Unix.gettimeofday () -. t0 in
        if dt > !max_recovery then max_recovery := dt;
        Some conn
      end
      else begin
        Serve.Client.close conn;
        None
      end
    | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> None
  in
  (* ---- kill cycles: traffic until the armed SIGKILL lands *)
  for cycle = 1 to cycles do
    let t0 = Unix.gettimeofday () in
    let pid = spawn_server () in
    (match connect_and_measure t0 with
     | None ->
       incr clean_failures;
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (Soak.reap soak pid)
     | Some conn ->
       (match Serve.Client.stats conn with
        | Ok resp ->
          generations := Soak.int_stat resp "gen" :: !generations;
          resolve_tail resp
        | Error _ -> incr clean_failures);
       (* armed only once the server answers: every kill lands under
          live traffic, at a uniformly random point in append/fsync/
          checkpoint activity *)
       let killer =
         Chaos.Killer.arm ~seed:(0xE20 + cycle) ~min_delay:0.05 ~max_delay:0.6
           pid
       in
       let alive = ref true in
       let n = ref 0 in
       while !alive do
         alive := send_batch conn ~expect_ack:false;
         incr n;
         if !alive && !n mod 3 = 0 then
           alive := check_predict conn ~expect_ack:false
       done;
       Serve.Client.close conn;
       let status = Soak.reap soak pid in
       if Chaos.Killer.cancel killer then incr kills;
       (* [Clean]: the kill raced process exit; rare, not a failure *)
       if status = Soak.Failed then incr clean_failures;
       Printf.fprintf oc
         "cycle %2d: killed after %.2fs, %d batches in flight so far\n%!"
         cycle (Chaos.Killer.delay killer) !batches_sent)
  done;
  (* ---- final cycle: recover once more, stream without a killer, read
     the recovered state, drain cleanly *)
  let t0 = Unix.gettimeofday () in
  let pid = spawn_server () in
  let final conn =
    (match Serve.Client.stats conn with
     | Ok resp ->
       generations := Soak.int_stat resp "gen" :: !generations;
       resolve_tail resp
     | Error _ -> incr clean_failures);
    for _ = 1 to final_batches do
      if not (send_batch conn ~expect_ack:true) then ()
    done;
    ignore (check_predict conn ~expect_ack:true);
    (* wait for the monitor thread to drain what we just sent: every
       journaled record ends up observed or skipped *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec settle () =
      match Serve.Client.stats conn with
      | Ok resp ->
        let mon_done =
          match
            (Serve.Wire.member "monitor" resp, Serve.Wire.member "durability" resp)
          with
          | Some mon, Some dur ->
            Soak.int_stat mon "observed" + Soak.int_stat mon "skipped"
            >= Soak.int_stat dur "journaled"
          | _ -> true
        in
        if mon_done || Unix.gettimeofday () > deadline then Some resp
        else begin
          Thread.delay 0.05;
          settle ()
        end
      | Error _ ->
        incr clean_failures;
        None
    in
    let last_stats = settle () in
    Serve.Client.close conn;
    Soak.drain soak;
    last_stats
  in
  let last_stats =
    match connect_and_measure t0 with
    | Some conn -> final conn
    | None ->
      incr clean_failures;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      None
  in
  let server_clean_exit = Soak.reap soak pid = Soak.Clean in
  (* ---- uninterrupted reference: one monitor fed the first [journaled]
     records of the sent stream, in order, with no crash anywhere *)
  let journaled, observed_final, skipped_final, mon_state, mon_cusum, mon_var =
    match last_stats with
    | Some resp ->
      let dur = Serve.Wire.member "durability" resp in
      let mon = Serve.Wire.member "monitor" resp in
      ( (match dur with Some d -> Soak.int_stat d "journaled" | None -> 0),
        (match mon with Some m -> Soak.int_stat m "observed" | None -> 0),
        (match mon with Some m -> Soak.int_stat m "skipped" | None -> 0),
        (match mon with Some m -> Soak.string_member m "state" | None -> ""),
        (match mon with Some m -> Soak.float_member m "cusum" | None -> Float.nan),
        (match mon with Some m -> Soak.float_member m "var_ratio" | None -> Float.nan)
      )
    | None -> (0, 0, 0, "", Float.nan, Float.nan)
  in
  let prefix =
    List.concat (List.rev !known) |> List.mapi (fun i o -> (i + 1, o))
  in
  let reference =
    Serve.Monitor.create ~config:monitor_cfg ~n_paths
      ~r:(Array.length rep) ~m:(Array.length rem)
      ~reselect:(fun _ -> Error "reference never reselects") ()
  in
  Serve.Monitor.replay reference prefix;
  let ref_report = Serve.Monitor.read reference in
  let close_f a b =
    (Float.is_nan a && Float.is_nan b)
    || Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)
  in
  let state_match =
    journaled = !known_n
    && observed_final = ref_report.Serve.Monitor.observed
    && skipped_final = ref_report.Serve.Monitor.skipped
    && mon_state = Stats.Drift.state_to_string ref_report.Serve.Monitor.state
    && close_f mon_cusum ref_report.Serve.Monitor.cusum
    && close_f mon_var ref_report.Serve.Monitor.var_ratio
  in
  let lost_acked = Int.max 0 (!acked_dies - observed_final - skipped_final) in
  let generations = List.rev !generations in
  let gen_monotonic =
    let rec mono = function
      | a :: (b :: _ as rest) -> a < b && mono rest
      | _ -> true
    in
    mono generations
  in
  let ok =
    !kills >= Int.max 1 (cycles - 1)
    && lost_acked = 0
    && !wrong = 0
    && !clean_failures = 0
    && state_match
    && gen_monotonic
    && server_clean_exit
    && !max_recovery <= recovery_bound_s
  in
  Printf.fprintf oc
    "E20: %d kills / %d cycles, %d acked dies, %d journaled, %d observed \
     (+%d skipped), lost acked %d, %d wrong, %d clean failures, max \
     recovery %.2fs (bound %.0fs), state match %b, generations %s, clean \
     exit %b\n"
    !kills cycles !acked_dies journaled observed_final skipped_final
    lost_acked !wrong !clean_failures !max_recovery recovery_bound_s
    state_match
    (String.concat "->" (List.map string_of_int generations))
    server_clean_exit;
  Printf.fprintf oc "E20 %s\n" (if ok then "ok" else "FAILED");
  flush oc;
  let timing_note =
    if Host.cores () = 1 then
      "1-core host: recovery_s includes serial replay; the durability \
       invariants (lost_acked, wrong_answers, state_match) are \
       core-independent"
    else "multi-core host"
  in
  Soak.write ~oc ?out "E20"
    (let open Core.Report in
     [
       ("bench", String bench_name);
       ("timing_note", String timing_note);
       ("n_paths", Int n_paths);
       (* kill cycles; the final clean cycle is extra *)
       ("cycles", Int cycles);
       (* SIGKILLs that actually landed *)
       ("kills", Int !kills);
       ("batches_sent", Int !batches_sent);
       (* dies the server acked as queued *)
       ("acked_dies", Int !acked_dies);
       (* the WAL high-water mark at the end *)
       ("journaled", Int journaled);
       ("observed_final", Int observed_final);
       (* acked dies missing from the recovered state *)
       ("lost_acked", Int lost_acked);
       ("wrong_answers", Int !wrong);
       (* protocol failures outside kill windows *)
       ("clean_failures", Int !clean_failures);
       (* the slowest restart-to-first-answer *)
       ("max_recovery_s", Float !max_recovery);
       ("recovery_bound_s", Float recovery_bound_s);
       (* recovered = the uninterrupted reference *)
       ("state_match", Bool state_match);
       (* the serving generation seen after each boot *)
       ("generations", List (List.map (fun g -> Int g) generations));
       ("gen_monotonic", Bool gen_monotonic);
       (* the final cycle's shutdown handshake *)
       ("server_clean_exit", Bool server_clean_exit);
       ("ok", Bool ok);
     ]);
  ok
