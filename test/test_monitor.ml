(* Tests for the self-healing loop's state machine (Serve.Monitor),
   driven deterministically: [step ~now] takes the caller's clock, so
   calibration, drift-triggered re-selection, cooldown, exponential
   backoff on failure, and artifact-swap recalibration are all checked
   without threads or wall-clock sleeps. *)

module Monitor = Serve.Monitor

let n_paths = 5
let r = 2
let m = 3

let mon_cfg =
  {
    Monitor.default_config with
    Monitor.calibrate = 4;
    min_dies = 4;
    buffer = 8;
    cooldown = 1.0;
    max_backoff = 4.0;
    drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1.0;
        drift = 2.0 };
  }

(* a fully measured die whose residual is [resid]; delay values are
   arbitrary finite numbers keyed off [i] so ring rows differ *)
let obs ?(resid = 0.0) i =
  let f k = 10.0 +. float_of_int (((i * 7) + k) mod 5) in
  let measured = Array.init r f in
  let truth = Array.init m (fun k -> f (r + k)) in
  let full = Array.append measured truth in
  { Monitor.measured; truth; full; resid; wafer = "" }

let create ?(config = mon_cfg) ?(reselect = fun _ -> Ok (r, m, 1.0)) () =
  Monitor.create ~config ~n_paths ~r ~m ~reselect ()

(* submit [calibrate] healthy dies with +/-0.1 residuals: reference
   mean ~0, sigma ~0.1, so a unit residual is a ~10-sigma step *)
let calibrate t ~now =
  for i = 1 to mon_cfg.Monitor.calibrate do
    Monitor.submit t (obs ~resid:(if i mod 2 = 0 then 0.1 else -0.1) i)
  done;
  Monitor.step t ~now

let test_calibration () =
  let t = create () in
  let r0 = Monitor.read t in
  Alcotest.(check bool) "starts calibrating" true r0.Monitor.calibrating;
  calibrate t ~now:0.0;
  let r1 = Monitor.read t in
  Alcotest.(check bool) "calibrated" false r1.Monitor.calibrating;
  Alcotest.(check int) "dies observed" 4 r1.Monitor.observed;
  Alcotest.(check string) "healthy" "healthy"
    (Stats.Drift.state_to_string r1.Monitor.state)

let test_drift_triggers_reselect () =
  let calls = ref [] in
  let reselect recent =
    calls := Linalg.Mat.dims recent :: !calls;
    Ok (r, m, 42.0)
  in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  (* one 10-sigma residual blows straight past drift = 2 *)
  Monitor.submit t (obs ~resid:1.0 99);
  Monitor.step t ~now:10.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "one reselect" 1 rep.Monitor.reselects;
  Alcotest.(check int) "no failures" 0 rep.Monitor.reselect_failures;
  Alcotest.(check bool) "wall time surfaced" true
    (Float.abs (rep.Monitor.last_reselect_ms -. 42.0) < 1e-9);
  Alcotest.(check bool) "recalibrating against the new artifact" true
    rep.Monitor.calibrating;
  (match !calls with
   | [ (dies, cols) ] ->
     Alcotest.(check int) "full-path columns" n_paths cols;
     Alcotest.(check int) "all ring dies passed" 5 dies
   | l -> Alcotest.failf "expected one reselect call, got %d" (List.length l));
  (* cooldown: drift again immediately after recalibration must wait
     out [now + cooldown] before the next attempt fires *)
  calibrate t ~now:10.2;
  Monitor.submit t (obs ~resid:1.0 100);
  Monitor.step t ~now:10.5;
  Alcotest.(check int) "cooldown holds" 1 (Monitor.read t).Monitor.reselects;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "cooldown elapsed" 2 (Monitor.read t).Monitor.reselects

let test_failure_backoff () =
  let fail = ref true in
  let attempts = ref 0 in
  let reselect _ =
    incr attempts;
    if !fail then Error "boom" else Ok (r, m, 5.0)
  in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 50);
  Monitor.step t ~now:10.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "first failure" 1 rep.Monitor.reselect_failures;
  Alcotest.(check string) "error surfaced" "boom" rep.Monitor.last_error;
  Alcotest.(check bool) "backoff at cooldown" true
    (Float.abs (rep.Monitor.backoff_s -. 1.0) < 1e-9);
  (* the latch holds the detector at Drifted, but the backoff gates
     retries: nothing fires before now + backoff *)
  Monitor.step t ~now:10.9;
  Alcotest.(check int) "backoff holds" 1 !attempts;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "retry at the deadline" 2 !attempts;
  Alcotest.(check bool) "backoff doubles" true
    (Float.abs ((Monitor.read t).Monitor.backoff_s -. 2.0) < 1e-9);
  Monitor.step t ~now:13.0;
  Alcotest.(check int) "third attempt" 3 !attempts;
  Monitor.step t ~now:17.0;
  Alcotest.(check int) "fourth attempt" 4 !attempts;
  Alcotest.(check bool) "backoff capped at max_backoff" true
    (Float.abs ((Monitor.read t).Monitor.backoff_s -. 4.0) < 1e-9);
  (* recovery: the next successful attempt clears the backoff and the
     failure trail, and the old-artifact stream was never interrupted *)
  fail := false;
  Monitor.step t ~now:21.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "success after failures" 1 rep.Monitor.reselects;
  Alcotest.(check int) "failures retained for the record" 4
    rep.Monitor.reselect_failures;
  Alcotest.(check bool) "backoff cleared" true
    (Float.abs rep.Monitor.backoff_s < 1e-9);
  Alcotest.(check string) "error cleared" "" rep.Monitor.last_error

let test_swapped_recalibrates () =
  let t = create () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 7);
  (* min_dies not yet in the ring? it is (5 >= 4) — but make the swap
     arrive before the step so no reselect fires *)
  Monitor.swapped t ~r ~m;
  let rep = Monitor.read t in
  Alcotest.(check bool) "recalibrating after swap" true rep.Monitor.calibrating;
  Alcotest.(check int) "stream counters survive the swap" 4
    rep.Monitor.observed;
  Monitor.step t ~now:1.0;
  Alcotest.(check int) "no reselect during recalibration" 0
    (Monitor.read t).Monitor.reselects;
  (* incompatible split is a programming error, loudly rejected *)
  match Monitor.swapped t ~r:(r + 1) ~m with
  | () -> Alcotest.fail "incompatible split must be rejected"
  | exception Invalid_argument _ -> ()

(* serve's reload path reports every swap back through [swapped] — when
   the swap is the monitor's own re-selection landing, the post-reselect
   cooldown must survive the resync instead of being erased by it *)
let test_self_swap_keeps_cooldown () =
  let t = create () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 99);
  Monitor.step t ~now:10.0;
  Alcotest.(check int) "reselect fired" 1 (Monitor.read t).Monitor.reselects;
  (* the mon_resync round-trip: our own artifact landed *)
  Monitor.swapped t ~r ~m;
  calibrate t ~now:10.1;
  Monitor.submit t (obs ~resid:1.0 100);
  Monitor.step t ~now:10.5;
  Alcotest.(check int) "cooldown survives own swap" 1
    (Monitor.read t).Monitor.reselects;
  Monitor.step t ~now:11.0;
  Alcotest.(check int) "cooldown elapsed" 2 (Monitor.read t).Monitor.reselects

let test_operator_swap_clears_backoff () =
  let fail = ref true in
  let reselect _ = if !fail then Error "boom" else Ok (r, m, 1.0) in
  let t = create ~reselect () in
  calibrate t ~now:0.0;
  Monitor.submit t (obs ~resid:1.0 50);
  Monitor.step t ~now:10.0;
  Alcotest.(check bool) "backoff pending" true
    ((Monitor.read t).Monitor.backoff_s > 0.0);
  (* an operator SIGHUPs a fresh artifact in: pacing resets — the new
     model deserves an ungated first attempt if it still drifts *)
  Monitor.swapped t ~r ~m;
  Alcotest.(check bool) "operator swap clears backoff" true
    (Float.abs (Monitor.read t).Monitor.backoff_s < 1e-9);
  fail := false;
  calibrate t ~now:10.1;
  Monitor.submit t (obs ~resid:1.0 51);
  Monitor.step t ~now:10.2;
  Alcotest.(check int) "retry not gated after operator swap" 1
    (Monitor.read t).Monitor.reselects

let test_pending_cap_drops () =
  let cfg = { mon_cfg with Monitor.pending_cap = 2 } in
  let t = create ~config:cfg () in
  for i = 1 to 5 do Monitor.submit t (obs i) done;
  Monitor.step t ~now:0.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "cap admits two" 2 rep.Monitor.observed;
  Alcotest.(check int) "overflow counted, not blocked" 3 rep.Monitor.dropped;
  (* the drain released exactly the admitted slots: the next batch is
     admitted up to the cap again, not against a stale count *)
  for i = 6 to 10 do Monitor.submit t (obs i) done;
  Monitor.step t ~now:1.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "slots released after drain" 4 rep.Monitor.observed;
  Alcotest.(check int) "second overflow counted" 6 rep.Monitor.dropped

let test_malformed_observations () =
  let t = create () in
  (* wrong measured length: skipped by the shape check *)
  Monitor.submit t
    { Monitor.measured = [| 1.0 |]; truth = Array.make m 1.0;
      full = Array.make n_paths 1.0; resid = 0.0; wafer = "" };
  (* non-finite die: kept out of the ring, detector sees the residual *)
  let bad = obs 3 in
  bad.Monitor.measured.(0) <- Float.nan;
  bad.Monitor.full.(0) <- Float.nan;
  Monitor.submit t bad;
  Monitor.step t ~now:0.0;
  let rep = Monitor.read t in
  Alcotest.(check int) "both skipped" 2 rep.Monitor.skipped;
  Alcotest.(check int) "neither observed" 0 rep.Monitor.observed;
  Alcotest.(check int) "fail-safe untripped" 0 rep.Monitor.monitor_errors

let test_create_validation () =
  let rejects name f =
    match f () with
    | (_ : Monitor.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let reselect _ = Ok (r, m, 0.0) in
  rejects "split does not cover the pool" (fun () ->
      Monitor.create ~config:mon_cfg ~n_paths ~r:3 ~m ~reselect ());
  rejects "buffer below min_dies" (fun () ->
      Monitor.create
        ~config:{ mon_cfg with Monitor.buffer = 2 }
        ~n_paths ~r ~m ~reselect ());
  rejects "nonpositive cooldown" (fun () ->
      Monitor.create
        ~config:{ mon_cfg with Monitor.cooldown = 0.0 }
        ~n_paths ~r ~m ~reselect ());
  (* detector thresholds are validated at startup, not when calibration
     completes mid-stream on the monitor thread *)
  rejects "warn above drift threshold" (fun () ->
      Monitor.create
        ~config:
          { mon_cfg with
            Monitor.drift =
              { mon_cfg.Monitor.drift with Stats.Drift.warn = 9.0; drift = 8.0 } }
        ~n_paths ~r ~m ~reselect ());
  rejects "nonpositive drift threshold" (fun () ->
      Monitor.create
        ~config:
          { mon_cfg with
            Monitor.drift =
              { mon_cfg.Monitor.drift with Stats.Drift.warn = 0.0; drift = 0.0 } }
        ~n_paths ~r ~m ~reselect ())

(* ------------------------------------------------------------------ *)
(* Durability: recovery must land on the state an uninterrupted run
   holds — not approximately, bit-exactly. *)

module Durable = Serve.Durable

(* drift thresholds pushed out of reach: no re-selection fires, so the
   comparison below is pure ingest state (detector accumulators, ring,
   counters) with no pacing noise *)
let quiet_cfg =
  {
    mon_cfg with
    Monitor.drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1e6;
        drift = 1e9; var_ratio = 1e9 };
  }

(* die [i] of a deterministic stream with some character: varying
   residuals, an occasional non-finite truth (exercises the skipped
   path) — recovery must reproduce the bookkeeping for those too *)
let stream_die i =
  let o = obs ~resid:(0.05 *. float_of_int ((i mod 9) - 4)) i in
  if i mod 7 = 3 then o.Monitor.truth.(0) <- Float.nan;
  o

let quiet_create () = create ~config:quiet_cfg ()

(* an uninterrupted monitor over journaled dies [1..n] *)
let uninterrupted n =
  let t = quiet_create () in
  for i = 1 to n do
    Monitor.submit ~seq:i t (stream_die i)
  done;
  Monitor.step t ~now:0.0;
  t

(* PSC1 pinned: examples/data/monitor_v2.psc was written by the
   version-2 encoder over this stream (the quiet stream, 20 journaled
   dies, generation 7). Dies 1, 5, 9, 13, 17 carry wafer "w1", dies 19
   and 20 wafer "w2", which is still calibrating (2 of 4); dies 3, 10
   and 17 are non-finite; 17 dies in an 8-row ring have wrapped it. *)
let fixture_wafer i = if i mod 4 = 1 then "w1" else if i >= 19 then "w2" else ""

let fixture_monitor () =
  let t = quiet_create () in
  for i = 1 to 20 do
    Monitor.submit ~seq:i t { (stream_die i) with Monitor.wafer = fixture_wafer i }
  done;
  Monitor.step t ~now:0.0;
  t

let no_reselect _ = Error "no reselect"

module W = Store.Codec.W
module R = Store.Codec.R

(* the checkpoint payload: the monitor's canonical bytes *)
let encode t =
  let w = W.create () in
  Monitor.encode w t;
  W.contents w

let decode ?(config = quiet_cfg) s =
  Store.Codec.decode s (Monitor.decode ~config ~reselect:no_reselect)

(* the ring a payload holds: its rows, oldest first, and its die count *)
let payload_ring s =
  Store.Codec.decode s (fun rd ->
      for _ = 1 to 3 do ignore (R.int rd) done;
      let rows = Array.init (R.int rd) (fun _ -> R.float_array rd) in
      let ring_n = R.int rd in
      R.skip_rest rd;
      (rows, ring_n))

let prop_recovery =
  QCheck.Test.make ~count:40
    ~name:"checkpoint + WAL-suffix replay equals the uninterrupted run"
    QCheck.(triple (int_range 1 40) (int_range 0 1000) (int_range 0 3))
    (fun (n, kseed, overlap) ->
      let k = kseed mod (n + 1) in
      let reference = uninterrupted n in
      (* the crashed run: k dies made it into the checkpoint, which
         rides the real codec *)
      let recovered =
        match decode (encode (uninterrupted k)) with
        | Ok t -> t
        | Error msg -> QCheck.Test.fail_reportf "checkpoint codec: %s" msg
      in
      if Monitor.applied_seq recovered <> k then
        QCheck.Test.fail_reportf "restored applied_seq %d, expected %d"
          (Monitor.applied_seq recovered) k;
      (* replay a WAL suffix that overlaps the checkpoint: records at
         or below applied_seq must be skipped (idempotence) *)
      let from = Int.max 1 (k - overlap + 1) in
      Monitor.replay recovered
        (List.init (n - from + 1) (fun j -> (from + j, stream_die (from + j))));
      Monitor.applied_seq recovered = n
      && String.equal (encode reference) (encode recovered))

(* a double replay of the same suffix must change nothing *)
let test_replay_idempotent () =
  let n = 12 and k = 5 in
  let recovered = Result.get_ok (decode (encode (uninterrupted k))) in
  let suffix = List.init (n - k) (fun j -> (k + 1 + j, stream_die (k + 1 + j))) in
  Monitor.replay recovered suffix;
  let once = encode recovered in
  Monitor.replay recovered suffix;
  Alcotest.(check string) "second replay is a no-op" once (encode recovered);
  Alcotest.(check string) "matches the uninterrupted run"
    (encode (uninterrupted n)) once

let load_checkpoint = Durable.load_checkpoint ~config:quiet_cfg ~reselect:no_reselect

(* Durable.save_checkpoint rides Store.write_file_atomic: children are
   SIGKILLed mid-save; the checkpoint path must always load as the old
   or the new (gen, monitor) pair, never torn — the serve-layer twin
   of test_store's kill-mid-write *)
let test_checkpoint_kill_mid_write () =
  let s1 = encode (uninterrupted 6) and s2 = encode (uninterrupted 14) in
  let path = Filename.temp_file "pathsel-ckpt" ".psc" in
  (match Durable.save_checkpoint path ~gen:1 (uninterrupted 6) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "seed checkpoint: %s" (Core.Errors.to_string e));
  for i = 0 to 19 do
    Kill_child.run ~delay:(float_of_int (i mod 7) *. 0.0004) (fun () ->
        ignore (Durable.save_checkpoint path ~gen:2 (uninterrupted 14)));
    match load_checkpoint path with
    | Error e ->
      Alcotest.failf "iteration %d: torn checkpoint: %s" i
        (Core.Errors.to_string e)
    | Ok None -> Alcotest.failf "iteration %d: checkpoint vanished" i
    | Ok (Some (gen, t)) ->
      let s = encode t in
      if not ((gen = 1 && String.equal s s1) || (gen = 2 && String.equal s s2))
      then Alcotest.failf "iteration %d: checkpoint is neither old nor new" i
  done;
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  Array.iter
    (fun f ->
      if String.length f >= String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  Sys.remove path

(* PSC1 gets the corruption table PSA1 has: every damaged checkpoint is
   a typed error (exit 65) that boot can fall back from, never an
   exception *)
let with_bytes_file bytes f =
  let path = Filename.temp_file "pathsel-ckpt" ".psc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  f path

let checkpoint_bytes ~gen t =
  let path = Filename.temp_file "pathsel-ckpt" ".psc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Durable.save_checkpoint path ~gen t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Core.Errors.to_string e));
  Core.Errors.get_ok (Core.Errors.read_file path)

let load_checkpoint_bytes bytes = with_bytes_file bytes load_checkpoint

(* The framed-file header written by hand (magic, u32 version, u64
   payload length, u32 CRC of the payload), so tests pin the on-disk
   layout independently of Store.frame. Test_store uses it for PSA1. *)
let framed ~magic ~version payload =
  let b = Buffer.create (Store.header_size + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Store.Codec.crc32 payload));
  Buffer.add_string b payload;
  Buffer.contents b

let payload_of s = String.sub s Store.header_size (String.length s - Store.header_size)

(* the payload (generation, then the monitor's r, m, applied_seq and
   ring count, each a lo/hi u32 pair) behind a valid header and CRC *)
let reframe s ~f =
  let payload = Bytes.of_string (payload_of s) in
  f payload;
  framed ~magic:"PSC1" ~version:Durable.ckpt_version (Bytes.to_string payload)

(* A checkpoint in the version-1 layout. Version 1 held one more
   block, an incremental regression, between the last error and the
   drift detectors: this reads the head both layouts share off the
   version-2 payload, writes it again field by field, and puts the
   block back as a regression that has seen no die wrote it (ridge
   1e-3 on the Gram diagonal, its Cholesky factor, zero cross moments,
   resync period 64). *)
let v1_checkpoint_bytes ~gen t =
  let v2 = payload_of (checkpoint_bytes ~gen t) in
  let head = W.create () in
  let r, m =
    match
      Store.Codec.decode v2 (fun rd ->
          let int () =
            let v = R.int rd in
            W.int head v;
            v
          in
          ignore (int ());
          let r = int () in
          let m = int () in
          ignore (int ());
          for _ = 1 to int () do W.float_array head (R.float_array rd) done;
          for _ = 1 to 7 do ignore (int ()) done;
          for _ = 1 to 3 do W.f64 head (R.f64 rd) done;
          W.u32 head (R.u32 rd);
          W.str head (R.str rd);
          R.skip_rest rd;
          (r, m))
    with
    | Ok rm -> rm
    | Error msg -> Alcotest.failf "version-2 head: %s" msg
  in
  let head = W.contents head in
  let n = String.length head in
  if not (String.equal head (String.sub v2 0 n)) then
    Alcotest.fail "version-1 head does not match the version-2 encoder";
  let refit = W.create () in
  let d = r + 1 and ridge = 1e-3 in
  let diag x = Linalg.Mat.init d d (fun i j -> if i = j then x else 0.0) in
  List.iter (W.int refit) [ r; m; 64 ];
  W.mat refit (diag ridge);
  W.mat refit (Linalg.Mat.create d m);
  W.mat refit (diag (Float.sqrt ridge));
  List.iter (W.int refit) [ 0; 0; 0; 0 ];
  framed ~magic:"PSC1" ~version:1
    (head ^ W.contents refit ^ String.sub v2 n (String.length v2 - n))

let test_checkpoint_corruption () =
  let s = checkpoint_bytes ~gen:3 (uninterrupted 12) in
  (match load_checkpoint "/nonexistent/checkpoint.psc" with
   | Ok None -> ()
   | Ok (Some _) -> Alcotest.fail "missing checkpoint loaded"
   | Error e -> Alcotest.failf "missing checkpoint: %s" (Core.Errors.to_string e));
  (match load_checkpoint_bytes s with
   | Ok (Some (3, _)) -> ()
   | _ -> Alcotest.fail "pristine checkpoint did not load");
  Alcotest.(check string) "hand-written PSC1 header matches the encoder" s
    (reframe s ~f:ignore);
  let expect label bytes check =
    match load_checkpoint_bytes bytes with
    | Ok _ -> Alcotest.failf "%s: damaged checkpoint accepted" label
    | Error e ->
      if not (check e) then
        Alcotest.failf "%s: wrong error: %s" label (Core.Errors.to_string e);
      Alcotest.(check int) (label ^ ": exit code") 65 (Core.Errors.exit_code e)
  in
  let set_bytes f =
    let b = Bytes.of_string s in
    f b;
    Bytes.to_string b
  in
  expect "bad magic" (set_bytes (fun b -> Bytes.set b 0 'X')) (function
    | Core.Errors.Bad_magic _ -> true
    | _ -> false);
  expect "version 1" (set_bytes (fun b -> Bytes.set_int32_le b 4 1l)) (function
    | Core.Errors.Version_mismatch { found = 1; expected = 2; _ } -> true
    | _ -> false);
  let corrupt = function Core.Errors.Corrupt_artifact _ -> true | _ -> false in
  List.iter
    (fun keep ->
      expect (Printf.sprintf "truncated to %d" keep) (String.sub s 0 keep) corrupt)
    [ 0; 3; 10; Store.header_size; Store.header_size + 36; String.length s / 2;
      String.length s - 1 ];
  (* CRC-valid but out of range: a ring count whose high word is 2^30
     once decoded to a negative count and crashed boot in Array.init *)
  expect "ring-count high word 2^30"
    (reframe s ~f:(fun p -> Bytes.set_int32_le p 36 0x40000000l))
    corrupt;
  expect "r high word 2^30"
    (reframe s ~f:(fun p -> Bytes.set_int32_le p 12 0x40000000l))
    corrupt;
  (* CRC-valid and in range, but more ring rows (8) than dies: the ring
     count sits after the 8 rows of 4 + 8 * n_paths bytes each *)
  expect "ring larger than its die count"
    (reframe s ~f:(fun p -> Bytes.set_int32_le p (40 + (8 * (4 + (8 * n_paths)))) 7l))
    corrupt;
  (* an empty monitor's one group is calibrating, its residual count at
     byte 240: a full buffer without a detector, or a count past the
     buffer, would index past it at the group's next residual *)
  let empty = encode (quiet_create ()) in
  let with_calib_n k =
    let b = Bytes.of_string empty in
    Bytes.set_int32_le b 240 (Int32.of_int k);
    decode (Bytes.to_string b)
  in
  Alcotest.(check bool) "3 of 4 calibrating residuals load" true
    (Result.is_ok (with_calib_n 3));
  List.iter
    (fun k ->
      if Result.is_ok (with_calib_n k) then
        Alcotest.failf "calibration count %d of 4 without a detector accepted" k)
    [ 4; 5 ]

(* Mutation fuzz under the CRC: damaged payloads go straight to the
   decoders. Each result is a typed error or a value that re-encodes to
   the mutated bytes exactly, unless [exempt] says the bytes cannot;
   an exception fails the test. *)
let fuzz_decoder ?(exempt = fun _ -> false) ~name ~decode ~encode bases =
  let st = Random.State.make [| 18 |] in
  let bases = Array.of_list bases in
  let pick () = bases.(Random.State.int st (Array.length bases)) in
  let mutate i s =
    let n = String.length s in
    let pos () = Random.State.int st (max 1 n) in
    match i mod 4 with
    | 0 -> String.sub s 0 (pos ())
    | 1 ->
      let b = Bytes.of_string s in
      if n > 0 then begin
        let p = pos () in
        let mask = 1 + Random.State.int st 255 in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor mask))
      end;
      Bytes.to_string b
    | 2 ->
      let other = pick () in
      let j = Random.State.int st (max 1 (String.length other)) in
      String.sub s 0 (pos ()) ^ String.sub other j (String.length other - j)
    | _ ->
      (* inflate whatever u32 sits at a random offset: a length prefix,
         a count's high word, a tag *)
      let b = Bytes.of_string s in
      if n >= 4 then begin
        let p = Random.State.int st (n - 3) in
        let v = Int32.to_int (Bytes.get_int32_le b p) land 0xFFFFFFFF in
        let v' =
          match Random.State.int st 4 with
          | 0 -> v + 1
          | 1 -> v + 1 + Random.State.int st (1 lsl 20)
          | 2 -> 0x40000000
          | _ -> 0xFFFFFFFF
        in
        Bytes.set_int32_le b p (Int32.of_int (v' land 0xFFFFFFFF))
      end;
      Bytes.to_string b
  in
  for i = 0 to 1999 do
    let m = mutate i (pick ()) in
    match decode m with
    | Error _ -> ()
    | Ok v ->
      if not (String.equal (encode v) m || exempt m) then
        Alcotest.failf "%s: mutation %d accepted non-canonical bytes" name i
    | exception e ->
      Alcotest.failf "%s: mutation %d raised %s" name i (Printexc.to_string e)
  done

(* A payload whose ring holds other than min (dies, buffer) rows was
   written under another ring buffer: it loads (see the next case),
   and it is the one loadable payload that cannot re-encode to itself. *)
let other_buffer s =
  match payload_ring s with
  | Ok (rows, ring_n) ->
    Array.length rows <> Int.min ring_n quiet_cfg.Monitor.buffer
  | Error _ -> false

let test_decoder_fuzz () =
  fuzz_decoder ~exempt:other_buffer ~name:"Monitor.decode" ~decode:(fun s -> decode s) ~encode
    (encode (fixture_monitor ())
     :: List.map (fun n -> encode (uninterrupted n)) [ 0; 5; 12 ]);
  fuzz_decoder ~name:"decode_obs" ~decode:Durable.decode_obs
    ~encode:Durable.encode_obs
    (List.map Durable.encode_obs
       [ stream_die 1; stream_die 3; { (stream_die 4) with Monitor.wafer = "w07" } ])

let test_checkpoint_fixture () =
  let path =
    match Lazy.force Test_golden.data_dir with
    | Some dir -> Filename.concat dir "monitor_v2.psc"
    | None -> Alcotest.fail "examples/data is not visible"
  in
  let pinned = Core.Errors.get_ok (Core.Errors.read_file path) in
  let recovered =
    match load_checkpoint path with
    | Ok (Some (7, t)) -> t
    | Ok _ -> Alcotest.fail "fixture: expected generation 7"
    | Error e -> Alcotest.failf "fixture: %s" (Core.Errors.to_string e)
  in
  Alcotest.(check string) "decoded fixture re-encodes byte for byte" pinned
    (checkpoint_bytes ~gen:7 recovered);
  Alcotest.(check string) "a fresh run of the stream encodes the fixture" pinned
    (checkpoint_bytes ~gen:7 (fixture_monitor ()))

(* The fixture's 17 dies under another ring buffer than the 8 rows
   that wrote them: a smaller one keeps the newest rows and the die
   count, a larger one keeps all 8 and counts only them, so its window
   has no empty slot and re-encodes to itself from then on. *)
let test_ring_buffer_change () =
  let payload = encode (fixture_monitor ()) in
  let rows, ring_n = Result.get_ok (payload_ring payload) in
  Alcotest.(check (pair int int)) "fixture ring" (8, 17) (Array.length rows, ring_n);
  let under buffer = decode ~config:{ quiet_cfg with Monitor.buffer } in
  let ring_of = function
    | Ok t -> (encode t, Result.get_ok (payload_ring (encode t)))
    | Error msg -> Alcotest.failf "decode: %s" msg
  in
  let shrunk, (rows4, ring_n4) = ring_of (under 4 payload) in
  Alcotest.(check bool) "a smaller buffer does not re-encode to the payload" false
    (String.equal shrunk payload);
  Alcotest.(check int) "die count kept" 17 ring_n4;
  Alcotest.(check bool) "newest rows kept" true (rows4 = Array.sub rows 4 4);
  let grown, (rows16, ring_n16) = ring_of (under 16 payload) in
  Alcotest.(check int) "die count is the rows held" 8 ring_n16;
  Alcotest.(check bool) "every row kept" true (rows16 = rows);
  Alcotest.(check string) "the grown ring re-encodes to itself" grown
    (fst (ring_of (under 16 grown)))

let suites =
  [
    ( "monitor",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("calibration publishes a healthy baseline", test_calibration);
          ("drift triggers background reselect", test_drift_triggers_reselect);
          ("failed reselect backs off exponentially", test_failure_backoff);
          ("artifact swap recalibrates", test_swapped_recalibrates);
          ("own swap keeps the reselect cooldown", test_self_swap_keeps_cooldown);
          ("operator swap clears the backoff", test_operator_swap_clears_backoff);
          ("pending cap drops instead of blocking", test_pending_cap_drops);
          ("malformed observations are contained", test_malformed_observations);
          ("create validates config", test_create_validation);
          ("replay is idempotent", test_replay_idempotent);
          ( "kill mid-checkpoint leaves old or new, never torn",
            test_checkpoint_kill_mid_write );
          ("damaged checkpoints are typed errors", test_checkpoint_corruption);
          ("snapshot and record decoders survive mutation", test_decoder_fuzz);
        ]
      @ [ QCheck_alcotest.to_alcotest prop_recovery;
          Alcotest.test_case "the PSC1 fixture re-encodes byte for byte" `Quick
            test_checkpoint_fixture;
          Alcotest.test_case "a changed ring buffer keeps the newest rows" `Quick
            test_ring_buffer_change ] );
  ]
