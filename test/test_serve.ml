(* Integration: the prediction server on a real Unix-domain socket,
   checked bit-for-bit against the in-process predictors, plus wire
   format round trips and per-connection error isolation. *)

let artifact =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 90; seed = 23; depth = 8;
           num_inputs = 10; num_outputs = 8 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     let dm = Timing.Delay_model.build nl model in
     let t_cons = Timing.Delay_model.nominal_critical_delay dm in
     let r =
       Timing.Path_extract.extract ~max_paths:400 dm ~t_cons ~yield_threshold:0.99
     in
     let pool = Timing.Paths.build dm r.Timing.Path_extract.paths in
     let a = Timing.Paths.a_mat pool in
     let mu = Timing.Paths.mu_paths pool in
     let sel = Core.Select.exact ~a ~mu () in
     let mc = Timing.Monte_carlo.sample (Rng.create 99) pool ~n:40 in
     let d = Timing.Monte_carlo.path_delays mc in
     let rep = Core.Predictor.rep_indices sel.Core.Select.predictor in
     let clean = Linalg.Mat.select_cols d rep in
     let store =
       Store.of_selection ~fingerprint:"test:serve"
         ~n_segments:(Timing.Paths.num_segments pool)
         ~t_cons ~eps:0.05 ~a ~mu sel
     in
     (store, clean))

(* run the real accept loop on a background thread; the client drives
   it over the socket and shuts it down at the end *)
let with_server ?config ?reload_from f =
  let store, clean = Lazy.force artifact in
  let dir = Filename.temp_file "pathsel-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let addr = Serve.Unix_sock path in
  let thread =
    Thread.create
      (fun () ->
        Serve.run ~install_signals:false ?config ?reload_from store addr)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* the teardown connection can itself be shed when a bounded-queue
         test leaves the queue full (unix connect succeeds before accept):
         the server answers "overloaded" instead of executing the
         shutdown, and a single blind attempt would leave the join below
         blocked forever — retry until the drain is actually acked *)
      let shutdown_acked () =
        try
          let c = Serve.Client.connect ~retries:5 addr in
          let r =
            Serve.Client.request c
              (Serve.Wire.Obj [ ("op", Serve.Wire.String "shutdown") ])
          in
          Serve.Client.close c;
          match r with
          | Ok j -> Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true)
          | Error _ -> false
        with _ -> false
      in
      let rec ask tries =
        if (not (shutdown_acked ())) && tries > 0 then begin
          Thread.delay 0.1;
          ask (tries - 1)
        end
      in
      ask 50;
      Thread.join thread;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f store clean addr)

let sock_path = function
  | Serve.Unix_sock p -> p
  | Serve.Tcp _ -> assert false

(* raw line-level access, for sending deliberately malformed requests *)
let raw_connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.1;
      go (tries - 1)
  in
  go 50

let raw_send fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec read_line () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n = 0 then Buffer.contents buf
    else begin
      let s = Bytes.sub_string chunk 0 n in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.add_string buf (String.sub s 0 i);
        Buffer.contents buf
      | None ->
        Buffer.add_string buf s;
        read_line ()
    end
  in
  read_line ()

let raw_roundtrip fd line =
  raw_send fd (line ^ "\n");
  raw_read_line fd

(* response triage: ok flag and the failure-code vocabulary *)
let response_ok r =
  match Serve.Wire.parse r with
  | Ok j -> Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true)
  | Error _ -> false

let response_code r =
  match Serve.Wire.parse r with
  | Ok j -> Serve.Wire.member "code" j
  | Error _ -> None

let check_infra_code label r code =
  if response_code r <> Some (Serve.Wire.String code) then
    Alcotest.failf "%s: expected string code %S, got %s" label code r

let stat_int c key =
  match Serve.Client.stats c with
  | Error m -> Alcotest.failf "stats failed: %s" m
  | Ok j ->
    (match Serve.Wire.member key j with
     | Some (Serve.Wire.Int n) -> n
     | _ -> Alcotest.failf "stats missing int field %S" key)

(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let open Serve.Wire in
  let samples =
    [
      Null;
      Bool true;
      Int (-42);
      Float 1.0e-17;
      Float 425.00000000000301;
      String "a \"quoted\" \\ line\nwith\tcontrol \x01 bytes";
      List [ Int 1; Null; Float Float.pi ];
      Obj [ ("op", String "predict"); ("dies", List [ List [ Float 1.5 ] ]) ];
    ]
  in
  List.iter
    (fun j ->
      match parse (print j) with
      | Ok j' -> Alcotest.(check bool) "parse (print j) = j" true (j = j')
      | Error m -> Alcotest.failf "re-parse failed: %s on %s" m (print j))
    samples;
  (match parse "{\"a\":1} trailing" with
   | Ok _ -> Alcotest.fail "trailing garbage accepted"
   | Error _ -> ());
  match parse "[1," with
  | Ok _ -> Alcotest.fail "unterminated array accepted"
  | Error _ -> ()

let test_wire_float_bits () =
  (* %.17g must reproduce arbitrary doubles exactly *)
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = ((2.0 *. Rng.float rng) -. 1.0) *. 1e6 in
    match Serve.Wire.parse (Serve.Wire.print (Serve.Wire.Float x)) with
    | Ok (Serve.Wire.Float y) ->
      if Int64.bits_of_float x <> Int64.bits_of_float y then
        Alcotest.failf "float %h lost bits -> %h" x y
    | Ok j -> Alcotest.failf "float re-parsed as %s" (Serve.Wire.print j)
    | Error m -> Alcotest.failf "float re-parse error: %s" m
  done

let test_clean_batch_bit_identical () =
  with_server (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "ping" true (Serve.Client.ping c);
      match Serve.Client.predict c clean with
      | Error m -> Alcotest.failf "predict failed: %s" m
      | Ok (served, resp) ->
        let expected =
          Core.Predictor.predict_all (Store.predictor store) ~measured:clean
        in
        Alcotest.(check bool) "bit-identical to Predictor.predict_all" true
          (Linalg.Mat.bits_equal served expected);
        (match Serve.Wire.member "robust" resp with
         | Some (Serve.Wire.Bool false) -> ()
         | _ -> Alcotest.fail "clean batch should take the plain path"))

let test_faulty_batch_matches_robust () =
  with_server (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let faulty = Linalg.Mat.copy clean in
      let _, cols = Linalg.Mat.dims faulty in
      Linalg.Mat.set faulty 1 (cols - 1) Float.nan;
      match Serve.Client.predict c faulty with
      | Error m -> Alcotest.failf "predict failed: %s" m
      | Ok (served, resp) ->
        let expected =
          Core.Robust.predict_all (Store.robust store) ~measured:faulty
        in
        Alcotest.(check bool) "bit-identical to Robust.predict_all" true
          (Linalg.Mat.bits_equal served expected.Core.Robust.predicted);
        (match Serve.Wire.member "robust" resp with
         | Some (Serve.Wire.Bool true) -> ()
         | _ -> Alcotest.fail "NaN entry should route through Robust");
        match Serve.Wire.member "screen" resp with
        | Some (Serve.Wire.Obj _) -> ()
        | _ -> Alcotest.fail "robust response should carry screen counters")

let test_malformed_line_isolated () =
  with_server (fun _store clean addr ->
      let path = match addr with Serve.Unix_sock p -> p | Serve.Tcp _ -> assert false in
      let fd = raw_connect path in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a mixed session on ONE connection: garbage, then wrong shapes,
         then a clean batch — only the bad lines get error responses *)
      let r1 = raw_roundtrip fd "this is not json" in
      Alcotest.(check bool) "garbage -> ok:false" true
        (String.length r1 > 0
        && Serve.Wire.(
             match parse r1 with
             | Ok j -> member "ok" j = Some (Bool false)
             | Error _ -> false));
      let r2 = raw_roundtrip fd "{\"op\":\"predict\",\"dies\":[[1,2,3,4,5,6,7,8,9]]}" in
      (match Serve.Wire.parse r2 with
       | Ok j ->
         Alcotest.(check bool) "wrong width -> ok:false" true
           (Serve.Wire.member "ok" j = Some (Serve.Wire.Bool false));
         (match Serve.Wire.member "code" j with
          | Some (Serve.Wire.Int 65) -> ()
          | _ -> Alcotest.fail "bad data should carry sysexits code 65")
       | Error m -> Alcotest.failf "unparseable error response: %s" m);
      let r3 = raw_roundtrip fd "{\"op\":\"ping\"}" in
      (match Serve.Wire.parse r3 with
       | Ok j ->
         Alcotest.(check bool) "connection survives bad lines" true
           (Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true))
       | Error m -> Alcotest.failf "ping after errors failed: %s" m);
      ignore clean)

let test_stats_counters () =
  with_server (fun _store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore (Serve.Client.ping c);
      (match Serve.Client.predict c clean with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "predict failed: %s" m);
      match Serve.Client.stats c with
      | Error m -> Alcotest.failf "stats failed: %s" m
      | Ok j ->
        let dies, _ = Linalg.Mat.dims clean in
        (match Serve.Wire.member "dies_predicted" j with
         | Some (Serve.Wire.Int n) ->
           Alcotest.(check int) "dies_predicted" dies n
         | _ -> Alcotest.fail "stats missing dies_predicted");
        (match Serve.Wire.member "errors" j with
         | Some (Serve.Wire.Int 0) -> ()
         | _ -> Alcotest.fail "unexpected errors counted");
        match Serve.Wire.member "latency_ms" j with
        | Some (Serve.Wire.Obj fields) ->
          Alcotest.(check bool) "latency quantiles present" true
            (List.mem_assoc "p99" fields && List.mem_assoc "mean" fields)
        | _ -> Alcotest.fail "stats missing latency_ms")

(* ------------------------------------------------------------------ *)
(* Framing edge cases *)

let test_framer_edges () =
  let open Serve.Wire in
  let f = Framer.create ~max_line:32 () in
  (* a line split across many one-byte reads reassembles *)
  let line = "{\"op\":\"ping\"}" in
  String.iter (fun c -> Framer.feed f (Bytes.make 1 c) 0 1) (line ^ "\n");
  (match Framer.pop f with
   | Some (Framer.Line l) -> Alcotest.(check string) "tiny reads" line l
   | _ -> Alcotest.fail "expected a line from one-byte feeds");
  (* CRLF terminators are tolerated *)
  let b = Bytes.of_string "abc\r\n" in
  Framer.feed f b 0 (Bytes.length b);
  (match Framer.pop f with
   | Some (Framer.Line l) -> Alcotest.(check string) "CRLF stripped" "abc" l
   | _ -> Alcotest.fail "expected a line from CRLF input");
  (* empty line is a line, not a protocol wedge *)
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Line "") -> ()
   | _ -> Alcotest.fail "expected an empty line");
  (* over-cap flood: capped, buffered prefix discarded, total reported *)
  Alcotest.(check bool) "not overflowing" false (Framer.overflowing f);
  let flood = Bytes.of_string (String.make 100 'x') in
  Framer.feed f flood 0 100;
  Alcotest.(check bool) "overflowing mid-flood" true (Framer.overflowing f);
  Alcotest.(check bool) "partial while discarding" true (Framer.partial f);
  Framer.feed f (Bytes.of_string "\n") 0 1;
  (match Framer.pop f with
   | Some (Framer.Too_long n) -> Alcotest.(check int) "total bytes" 100 n
   | _ -> Alcotest.fail "expected Too_long");
  (* and the next line is unaffected *)
  Framer.feed f (Bytes.of_string "ok\n") 0 3;
  match Framer.pop f with
  | Some (Framer.Line "ok") -> ()
  | _ -> Alcotest.fail "line after the overflow was lost"

let test_framing_over_socket () =
  let config = { Serve.default_config with Serve.max_line = 256 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a newline-less flood far past the cap: typed error, capped
         memory, and the connection survives *)
      raw_send fd (String.make 4096 'z');
      raw_send fd "\n";
      let r = raw_read_line fd in
      check_infra_code "oversized line" r "line_too_long";
      (* trailing garbage after valid JSON poisons only that line *)
      let r = raw_roundtrip fd "{\"op\":\"ping\"} trailing" in
      check_infra_code "trailing garbage" r "bad_frame";
      (* an empty line is a frame error, not a hang or a disconnect *)
      let r = raw_roundtrip fd "" in
      check_infra_code "empty line" r "bad_frame";
      (* CRLF-terminated request works *)
      raw_send fd "{\"op\":\"ping\"}\r\n";
      Alcotest.(check bool) "CRLF request" true (response_ok (raw_read_line fd));
      (* a request dribbled out one byte at a time still completes *)
      String.iter (fun c -> raw_send fd (String.make 1 c)) "{\"op\":\"ping\"}\n";
      Alcotest.(check bool) "tiny writes" true (response_ok (raw_read_line fd)))

(* ------------------------------------------------------------------ *)
(* Overload shedding, deadlines, idle reaping *)

let test_shed_overloaded () =
  let config = { Serve.default_config with Serve.workers = 1; queue = 1 } in
  with_server ~config (fun _store _clean addr ->
      let path = sock_path addr in
      (* occupy the single worker ... *)
      let a = raw_connect path in
      Thread.delay 0.3;
      (* ... fill the one queue slot ... *)
      let b = raw_connect path in
      Thread.delay 0.3;
      (* ... and the next connection must be shed with a typed code *)
      let c = raw_connect path in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ a; b; c ])
      @@ fun () ->
      let r = raw_read_line c in
      check_infra_code "shed connection" r "overloaded";
      (* the worker's own connection still serves, and counted the shed *)
      let r = raw_roundtrip a "{\"op\":\"ping\"}" in
      Alcotest.(check bool) "occupied conn still serves" true (response_ok r);
      let r = raw_roundtrip a "{\"op\":\"stats\"}" in
      match Serve.Wire.parse r with
      | Ok j ->
        (match Serve.Wire.member "shed" j with
         | Some (Serve.Wire.Int n) when n >= 1 -> ()
         | _ -> Alcotest.failf "shed counter missing or zero: %s" r)
      | Error m -> Alcotest.failf "stats unparseable: %s" m)

let test_deadline_exceeded () =
  let config = { Serve.default_config with Serve.deadline = 0.4 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* start a request line and never finish it: the wall clock, not
         the read loop, decides when it dies *)
      raw_send fd "{\"op\":";
      let t0 = Unix.gettimeofday () in
      let r = raw_read_line fd in
      let dt = Unix.gettimeofday () -. t0 in
      check_infra_code "deadline expiry" r "deadline_exceeded";
      Alcotest.(check bool) "expired near the configured deadline" true
        (dt >= 0.2 && dt < 5.0);
      (* mid-frame stream: the server must close after answering *)
      Alcotest.(check string) "closed after deadline" "" (raw_read_line fd);
      (* the per-cause counter is visible to a fresh client *)
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "timeouts counter" true (stat_int c "timeouts" >= 1))

let test_idle_reaped () =
  let config = { Serve.default_config with Serve.idle_timeout = 0.3 } in
  with_server ~config (fun _store _clean addr ->
      let fd = raw_connect (sock_path addr) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      (* no request in flight: a silent connection is closed without a
         response (idle reap, not deadline expiry) *)
      Alcotest.(check string) "silent close" "" (raw_read_line fd);
      Alcotest.(check bool) "after the idle window" true
        (Unix.gettimeofday () -. t0 >= 0.2);
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "idle_closed counter" true
        (stat_int c "idle_closed" >= 1))

(* ------------------------------------------------------------------ *)
(* SIGHUP hot reload *)

let test_sighup_reload () =
  let store, _ = Lazy.force artifact in
  let apath = Filename.temp_file "pathsel-reload" ".psa" in
  (match Store.save apath store with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  Fun.protect ~finally:(fun () -> try Sys.remove apath with Sys_error _ -> ())
  @@ fun () ->
  with_server ~reload_from:apath (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let expected =
        Core.Predictor.predict_all (Store.predictor store) ~measured:clean
      in
      let predict_ok label =
        match Serve.Client.predict c clean with
        | Ok (m, _) ->
          Alcotest.(check bool) (label ^ ": bits stable") true
            (Linalg.Mat.bits_equal m expected)
        | Error m -> Alcotest.failf "%s: predict failed: %s" label m
      in
      predict_ok "before reload";
      (* swap in a same-selection artifact under a new fingerprint *)
      (match
         Store.save apath { store with Store.fingerprint = "test:serve v2" }
       with
       | Ok () -> ()
       | Error e -> Alcotest.failf "re-save failed: %s" (Core.Errors.to_string e));
      Unix.kill (Unix.getpid ()) Sys.sighup;
      (* the accept loop applies the reload between accepts; poll *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while stat_int c "reloads" < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "reload counted" true (stat_int c "reloads" >= 1);
      (match Serve.Client.stats c with
       | Ok j ->
         (match Serve.Wire.member "artifact" j with
          | Some a ->
            (match Serve.Wire.member "fingerprint" a with
             | Some (Serve.Wire.String "test:serve v2") -> ()
             | _ -> Alcotest.failf "fingerprint not swapped: %s" (Serve.Wire.print j))
          | None -> Alcotest.fail "stats missing artifact")
       | Error m -> Alcotest.failf "stats failed: %s" m);
      predict_ok "after reload";
      (* a corrupt artifact is rejected: serving state untouched *)
      Out_channel.with_open_bin apath (fun oc ->
          Out_channel.output_string oc "definitely not an artifact");
      Unix.kill (Unix.getpid ()) Sys.sighup;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while stat_int c "reload_failures" < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "bad artifact rejected" true
        (stat_int c "reload_failures" >= 1);
      predict_ok "after failed reload")

(* ------------------------------------------------------------------ *)
(* Client retry policy *)

let test_retry_semantics () =
  with_server (fun _store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let _, cols = Linalg.Mat.dims clean in
      let bad = Linalg.Mat.create 1 (cols + 1) in
      let r0 = stat_int c "requests" in
      (* a semantic error (integer code) must NOT be retried: exactly
         one request hits the server no matter how many attempts the
         policy allows *)
      (match Serve.Client.predict_with_retry addr bad with
       | Ok _ -> Alcotest.fail "wrong-width batch accepted"
       | Error _ -> ());
      let r1 = stat_int c "requests" in
      (* r0's stats read was already counted; since then: the one bad
         predict and the r1 stats read itself *)
      Alcotest.(check int) "semantic error sent once" (r0 + 2) r1;
      (* a good batch through the retry path predicts normally *)
      (match Serve.Client.predict_with_retry addr clean with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "retry predict failed: %s" m);
      (* transport errors ARE retried: a dead address costs the backoff
         schedule and comes back as Error, not an exception *)
      let retry =
        { Serve.Client.attempts = 3; base_delay = 0.02; max_delay = 0.1;
          connect_timeout = 0.5; deadline = 0.5 }
      in
      let dead = Serve.Unix_sock (sock_path addr ^ ".nowhere") in
      let t0 = Unix.gettimeofday () in
      (match
         Serve.Client.request_with_retry ~retry dead
           (Serve.Wire.Obj [ ("op", Serve.Wire.String "ping") ])
       with
       | Ok _ -> Alcotest.fail "request to a dead socket succeeded"
       | Error _ -> ());
      Alcotest.(check bool) "backoff slept between attempts" true
        (Unix.gettimeofday () -. t0 >= 0.03))

(* ------------------------------------------------------------------ *)
(* Generation counters, the observe op, and the self-healing loop
   (in-process: [Serve.handle]/[Serve.monitor_step] driven directly) *)

let gen_of r =
  match Serve.Wire.parse r with
  | Ok j ->
    (match Serve.Wire.member "gen" j with
     | Some (Serve.Wire.Int g) -> g
     | _ -> Alcotest.failf "response carries no generation: %s" r)
  | Error m -> Alcotest.failf "unparseable response: %s" m

let observe_req measured truth =
  Serve.Wire.print
    (Serve.Wire.Obj
       [
         ("op", Serve.Wire.String "observe");
         ("dies", Serve.Wire.mat_to_json measured);
         ("truth", Serve.Wire.mat_to_json truth);
       ])

let serve_mon_cfg =
  {
    Serve.Monitor.default_config with
    Serve.Monitor.calibrate = 8;
    min_dies = 8;
    buffer = 16;
    refit_min = 4;
    cooldown = 0.5;
    drift =
      { Stats.Drift.default_config with Stats.Drift.slack = 0.0; warn = 1.0;
        drift = 2.0 };
  }

(* residual-free truth: predictions of the serving artifact itself, so
   calibration sees a zero-sigma healthy reference *)
let exact_truth store clean =
  Core.Predictor.predict_all (Store.predictor store) ~measured:clean

let with_artifact_file f =
  let store, clean = Lazy.force artifact in
  let apath = Filename.temp_file "pathsel-mon" ".psa" in
  (match Store.save apath store with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  Fun.protect ~finally:(fun () -> try Sys.remove apath with Sys_error _ -> ())
  @@ fun () -> f store clean apath

let test_generation_and_reload () =
  with_artifact_file @@ fun store _clean apath ->
  let t = Serve.create ~reload_from:apath store in
  Alcotest.(check int) "fresh server is generation 1" 1
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  (match Serve.do_reload t with
   | Ok () -> ()
   | Error m -> Alcotest.failf "reload failed: %s" m);
  Alcotest.(check int) "reload bumps the generation" 2
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  (match Serve.Wire.parse (Serve.handle t {|{"op":"stats"}|}) with
   | Ok j ->
     (match Serve.Wire.member "artifact" j with
      | Some a ->
        (match Serve.Wire.member "generation" a with
         | Some (Serve.Wire.Int 2) -> ()
         | _ -> Alcotest.failf "artifact.generation: %s" (Serve.Wire.print j))
      | None -> Alcotest.fail "stats missing artifact")
   | Error m -> Alcotest.failf "stats unparseable: %s" m);
  (* without a reload path the swap is refused, not crashed *)
  let t2 = Serve.create store in
  match Serve.do_reload t2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "reload without a path must be refused"

let test_observe_requires_monitor () =
  let store, clean = Lazy.force artifact in
  let t = Serve.create store in
  Alcotest.(check bool) "observe refused when monitoring is off" false
    (response_ok (Serve.handle t (observe_req clean (exact_truth store clean))))

let test_auto_reselect_end_to_end () =
  with_artifact_file @@ fun store clean apath ->
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  let t = Serve.create ~config ~reload_from:apath store in
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  (* healthy stream: calibration plus a flat zero-residual baseline *)
  let r1 = Serve.handle t (observe_req clean truth) in
  Alcotest.(check bool) "observe accepted" true (response_ok r1);
  Alcotest.(check int) "observe rides generation 1" 1 (gen_of r1);
  (match Serve.Wire.parse r1 with
   | Ok j ->
     (match Serve.Wire.member "queued" j with
      | Some (Serve.Wire.Int q) -> Alcotest.(check int) "all dies clean" n_dies q
      | _ -> Alcotest.failf "no queued count: %s" r1)
   | Error m -> Alcotest.failf "unparseable: %s" m);
  Serve.monitor_step t ~now:0.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check bool) "calibrated" false rep.Serve.Monitor.calibrating;
     Alcotest.(check int) "stream observed" n_dies rep.Serve.Monitor.observed;
     Alcotest.(check string) "healthy baseline" "healthy"
       (Stats.Drift.state_to_string rep.Serve.Monitor.state)
   | None -> Alcotest.fail "monitor armed but no report");
  (* inject a process shift: every remaining-path delay jumps — the
     residual stream leaves the zero-sigma reference immediately *)
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 10.0)
  in
  Alcotest.(check bool) "shifted batch accepted" true
    (response_ok (Serve.handle t (observe_req clean shifted)));
  Serve.monitor_step t ~now:1.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check int) "drift bound, reselect ran" 1
       rep.Serve.Monitor.reselects;
     Alcotest.(check int) "no failures" 0 rep.Serve.Monitor.reselect_failures;
     Alcotest.(check bool) "reselect wall time surfaced" true
       (Float.is_finite rep.Serve.Monitor.last_reselect_ms)
   | None -> Alcotest.fail "monitor lost after reselect");
  (* the re-selected artifact was saved, CRC-verified and swapped in *)
  Alcotest.(check int) "swap bumped the generation" 2
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  match Serve.Wire.parse (Serve.handle t {|{"op":"stats"}|}) with
  | Ok j ->
    (match Serve.Wire.member "artifact" j with
     | Some a ->
       (match Serve.Wire.member "fingerprint" a with
        | Some (Serve.Wire.String fp) ->
          let has_marker =
            let marker = "[reselect" in
            let lm = String.length marker and n = String.length fp in
            let rec go i =
              i + lm <= n && (String.sub fp i lm = marker || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "provenance in the fingerprint" true has_marker
        | _ -> Alcotest.fail "no fingerprint")
     | None -> Alcotest.fail "stats missing artifact")
  | Error m -> Alcotest.failf "stats unparseable: %s" m

let test_reselect_failure_degrades_gracefully () =
  (* monitor armed but no reload path: re-selection cannot swap, so it
     must fail into backoff while the old artifact keeps serving *)
  let store, clean = Lazy.force artifact in
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  let t = Serve.create ~config store in
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  Alcotest.(check bool) "healthy stream" true
    (response_ok (Serve.handle t (observe_req clean truth)));
  Serve.monitor_step t ~now:0.0;
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 10.0)
  in
  Alcotest.(check bool) "shifted stream" true
    (response_ok (Serve.handle t (observe_req clean shifted)));
  Serve.monitor_step t ~now:1.0;
  (match Serve.monitor_report t with
   | Some rep ->
     Alcotest.(check int) "failure counted" 1
       rep.Serve.Monitor.reselect_failures;
     Alcotest.(check int) "nothing swapped" 0 rep.Serve.Monitor.reselects;
     Alcotest.(check bool) "backoff armed" true
       (rep.Serve.Monitor.backoff_s > 0.0);
     Alcotest.(check bool) "cause surfaced" true
       (String.length rep.Serve.Monitor.last_error > 0)
   | None -> Alcotest.fail "monitor armed but no report");
  (* the serving path never noticed: same generation, predictions live *)
  Alcotest.(check int) "old artifact keeps serving" 1
    (gen_of (Serve.handle t {|{"op":"ping"}|}));
  let predict_req =
    Serve.Wire.print
      (Serve.Wire.Obj
         [
           ("op", Serve.Wire.String "predict");
           ("dies", Serve.Wire.mat_to_json clean);
         ])
  in
  Alcotest.(check bool) "predict unaffected" true
    (response_ok (Serve.handle t predict_req))

let test_client_observe_and_generation () =
  let config =
    { Serve.default_config with Serve.monitor = Some serve_mon_cfg }
  in
  with_server ~config (fun store clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check (option int)) "no generation before a response" None
        (Serve.Client.generation c);
      Alcotest.(check bool) "ping" true (Serve.Client.ping c);
      Alcotest.(check (option int)) "generation tracked" (Some 1)
        (Serve.Client.generation c);
      let truth = exact_truth store clean in
      match Serve.Client.observe c ~measured:clean ~truth with
      | Ok j ->
        (match Serve.Wire.member "queued" j with
         | Some (Serve.Wire.Int q) when q >= 1 -> ()
         | _ -> Alcotest.failf "queued missing: %s" (Serve.Wire.print j))
      | Error m -> Alcotest.failf "client observe failed: %s" m)

(* durability: a clean restart over the same WAL directory must come
   back with the generation bumped and the monitor state — counters,
   drift accumulators — bit-exactly where the first run left it *)
let test_restart_recovers_state () =
  let store, clean = Lazy.force artifact in
  let wal_dir =
    let d = Filename.temp_file "pathsel-serve-wal" "" in
    Sys.remove d;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists wal_dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat wal_dir f) with _ -> ())
          (Sys.readdir wal_dir);
        try Unix.rmdir wal_dir with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  let config =
    {
      Serve.default_config with
      Serve.monitor =
        (* drift thresholds out of reach: the stream below has real
           residuals (live CUSUM movement to compare across the
           restart) but must never trigger a re-selection *)
        Some
          {
            serve_mon_cfg with
            Serve.Monitor.cooldown = 0.05;
            drift =
              { Stats.Drift.default_config with Stats.Drift.slack = 0.0;
                warn = 1e6; drift = 1e9; var_ratio = 1e9 };
          };
      durability =
        Some
          { Serve.wal_dir; checkpoint_every = 4; wal_segment_bytes = 1 lsl 22;
            wal_retain = 1 };
    }
  in
  let obj_int j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.Int i) -> i
       | _ -> Alcotest.failf "stats: no %s.%s (int)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let obj_float j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.Float f) -> f
       | Some (Serve.Wire.Int i) -> float_of_int i
       | _ -> Alcotest.failf "stats: no %s.%s (float)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let obj_string j outer field =
    match Serve.Wire.member outer j with
    | Some o ->
      (match Serve.Wire.member field o with
       | Some (Serve.Wire.String s) -> s
       | _ -> Alcotest.failf "stats: no %s.%s (string)" outer field)
    | None -> Alcotest.failf "stats: no %s object" outer
  in
  let stats_exn c =
    match Serve.Client.stats c with
    | Ok j -> j
    | Error m -> Alcotest.failf "stats failed: %s" m
  in
  let gen_of j =
    match Serve.Wire.member "gen" j with
    | Some (Serve.Wire.Int g) -> g
    | _ -> Alcotest.fail "stats: no gen"
  in
  (* truth with a constant shift: nonzero residuals, so the detector
     accumulators the restart must preserve are not trivially zero *)
  let truth = exact_truth store clean in
  let n_dies, n_rem = Linalg.Mat.dims truth in
  let shifted =
    Linalg.Mat.init n_dies n_rem (fun i j -> Linalg.Mat.get truth i j +. 0.25)
  in
  (* first run: feed the monitor, wait until every journaled record is
     applied, and note the exact state the restart must reproduce *)
  let first_run =
    with_server ~config (fun _store _clean addr ->
        let c = Serve.Client.connect addr in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        for _ = 1 to 4 do
          match Serve.Client.observe c ~measured:clean ~truth:shifted with
          | Ok j ->
            Alcotest.(check bool) "ack only after the journal write" true
              (Serve.Wire.member "journaled" j = Some (Serve.Wire.Bool true));
            Alcotest.(check int) "per-die status for the whole batch" n_dies
              (List.length (Serve.Client.die_statuses j))
          | Error m -> Alcotest.failf "observe failed: %s" m
        done;
        (* the monitor drains asynchronously: settle before reading *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec settle () =
          let j = stats_exn c in
          let applied =
            obj_int j "monitor" "observed" + obj_int j "monitor" "skipped"
          in
          if applied >= obj_int j "durability" "journaled" then j
          else if Unix.gettimeofday () > deadline then
            Alcotest.fail "monitor never drained the journal"
          else begin
            Thread.delay 0.02;
            settle ()
          end
        in
        settle ())
  in
  let gen1 = gen_of first_run in
  let journaled1 = obj_int first_run "durability" "journaled" in
  Alcotest.(check int) "every die journaled" (4 * n_dies) journaled1;
  (* second run, same WAL dir: recovery is checkpoint + WAL suffix *)
  with_server ~config (fun _store _clean addr ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let j = stats_exn c in
      Alcotest.(check int) "generation survives and increments" (gen1 + 1)
        (gen_of j);
      Alcotest.(check int) "journal high-water mark survives" journaled1
        (obj_int j "durability" "journaled");
      List.iter
        (fun field ->
          Alcotest.(check int)
            ("monitor." ^ field ^ " recovered")
            (obj_int first_run "monitor" field)
            (obj_int j "monitor" field))
        [ "observed"; "skipped"; "dropped"; "refit_dies"; "reselects" ];
      Alcotest.(check string) "drift state recovered"
        (obj_string first_run "monitor" "state")
        (obj_string j "monitor" "state");
      (* the wire prints %.17g, so bit-level equality is observable
         end to end *)
      List.iter
        (fun field ->
          Alcotest.(check int64)
            ("monitor." ^ field ^ " bit-exact")
            (Int64.bits_of_float (obj_float first_run "monitor" field))
            (Int64.bits_of_float (obj_float j "monitor" field)))
        [ "cusum"; "var_ratio" ];
      (* and the revived journal keeps accepting acked work *)
      match Serve.Client.observe c ~measured:clean ~truth:shifted with
      | Ok ack ->
        Alcotest.(check bool) "post-restart observe journaled" true
          (Serve.Wire.member "journaled" ack = Some (Serve.Wire.Bool true));
        Alcotest.(check bool) "dies accepted after recovery" true
          (List.for_all (fun s -> s = "used") (Serve.Client.die_statuses ack))
      | Error m -> Alcotest.failf "post-restart observe failed: %s" m)

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire floats keep their bits" `Quick
          test_wire_float_bits;
        Alcotest.test_case "clean batch bit-identical over socket" `Quick
          test_clean_batch_bit_identical;
        Alcotest.test_case "faulty batch matches Robust" `Quick
          test_faulty_batch_matches_robust;
        Alcotest.test_case "malformed lines poison only themselves" `Quick
          test_malformed_line_isolated;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "framer edge cases" `Quick test_framer_edges;
        Alcotest.test_case "framing edge cases over the socket" `Quick
          test_framing_over_socket;
        Alcotest.test_case "overload shedding" `Quick test_shed_overloaded;
        Alcotest.test_case "deadline expiry answers and closes" `Quick
          test_deadline_exceeded;
        Alcotest.test_case "idle connections reaped" `Quick test_idle_reaped;
        Alcotest.test_case "SIGHUP hot reload" `Quick test_sighup_reload;
        Alcotest.test_case "retry policy semantics" `Quick test_retry_semantics;
        Alcotest.test_case "generation counter and reload" `Quick
          test_generation_and_reload;
        Alcotest.test_case "observe requires the monitor" `Quick
          test_observe_requires_monitor;
        Alcotest.test_case "drift to auto-reselect, end to end" `Quick
          test_auto_reselect_end_to_end;
        Alcotest.test_case "reselect failure degrades gracefully" `Quick
          test_reselect_failure_degrades_gracefully;
        Alcotest.test_case "client observe and generation tracking" `Quick
          test_client_observe_and_generation;
        Alcotest.test_case "restart recovers generation and monitor state"
          `Quick test_restart_recovers_state;
      ] );
  ]
