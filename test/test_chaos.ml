(* The fault-injecting proxy: spec parsing, transparency when no fault
   is armed, and the core serving invariant under each injector — a
   mangled wire can fail a request but can never change an answer. *)

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
     let mc = Timing.Monte_carlo.sample (Rng.create 7) pool ~n:12 in
     let d = Timing.Monte_carlo.path_delays mc in
     let rep = Core.Predictor.rep_indices sel.Core.Select.predictor in
     let clean = Linalg.Mat.select_cols d rep in
     let store =
       Store.of_selection ~fingerprint:"test:chaos"
         ~n_segments:(Timing.Paths.num_segments pool)
         ~t_cons ~eps:0.05 ~a ~mu sel
     in
     (store, clean))

(* real server on a thread, proxy in front, both torn down afterwards *)
let with_stack ?seed ?eintr_pid spec f =
  let store, clean = Lazy.force artifact in
  let dir = Filename.temp_file "pathsel-chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let s_addr = Serve.Unix_sock (Filename.concat dir "s.sock") in
  let thread =
    Thread.create (fun () -> Serve.run ~install_signals:false store s_addr) ()
  in
  (* wait for the server socket before pointing the proxy at it *)
  (let c = Serve.Client.connect s_addr in
   Serve.Client.close c);
  let proxy =
    Chaos.start ?seed ?eintr_pid spec
      ~listen:(Serve.Unix_sock (Filename.concat dir "p.sock"))
      ~upstream:s_addr
  in
  Fun.protect
    ~finally:(fun () ->
      Chaos.stop proxy;
      (try
         let c = Serve.Client.connect ~retries:5 s_addr in
         Serve.Client.shutdown c;
         Serve.Client.close c
       with _ -> ());
      Thread.join thread;
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let expected =
        Core.Predictor.predict_all (Store.predictor store) ~measured:clean
      in
      f proxy (Chaos.bound_addr proxy) clean expected)

(* ------------------------------------------------------------------ *)

let test_spec_strings () =
  (match Chaos.of_string "" with
   | Ok s -> Alcotest.(check bool) "empty spec is none" true (s = Chaos.none)
   | Error m -> Alcotest.failf "empty spec rejected: %s" m);
  (match Chaos.of_string "delay=2,jitter=5,corrupt=0.25,stall=0.1,eintr=3" with
   | Ok s ->
     Alcotest.(check (float 0.0)) "delay" 2.0 s.Chaos.delay_ms;
     Alcotest.(check (float 0.0)) "jitter" 5.0 s.Chaos.jitter_ms;
     Alcotest.(check (float 0.0)) "corrupt" 0.25 s.Chaos.corrupt;
     Alcotest.(check (float 0.0)) "stall" 0.1 s.Chaos.stall;
     Alcotest.(check int) "eintr" 3 s.Chaos.eintr_burst;
     (* to_string emits only non-defaults and round-trips *)
     (match Chaos.of_string (Chaos.to_string s) with
      | Ok s' -> Alcotest.(check bool) "round trip" true (s = s')
      | Error m -> Alcotest.failf "round trip rejected: %s" m)
   | Error m -> Alcotest.failf "spec rejected: %s" m);
  List.iter
    (fun bad ->
      match Chaos.of_string bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ "corrupt=1.5"; "delay=-1"; "frobnicate=1"; "corrupt=sideways"; "stall" ]

let test_transparent_proxy () =
  with_stack Chaos.none (fun proxy addr clean expected ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Alcotest.(check bool) "ping through proxy" true (Serve.Client.ping c);
      (match Serve.Client.predict c clean with
       | Ok (m, _) ->
         Alcotest.(check bool) "bit-identical through proxy" true
           (Linalg.Mat.bits_equal m expected)
       | Error m -> Alcotest.failf "predict through idle proxy failed: %s" m);
      let st = Chaos.stats proxy in
      Alcotest.(check bool) "connections counted" true (st.Chaos.connections >= 1);
      Alcotest.(check bool) "chunks counted" true (st.Chaos.chunks >= 2);
      Alcotest.(check bool) "no faults fired" true
        (st.Chaos.corrupted = 0 && st.Chaos.stalled = 0
        && st.Chaos.disconnected = 0))

(* corruption can only break a frame, never alter an answer: with every
   chunk corrupted, requests must fail — not return different bits *)
let test_corrupt_never_wrong () =
  with_stack { Chaos.none with Chaos.corrupt = 1.0 }
    (fun proxy addr clean expected ->
      for _ = 1 to 3 do
        let c = Serve.Client.connect addr in
        (match Serve.Client.predict ~deadline:5.0 c clean with
         | Ok (m, _) ->
           if not (Linalg.Mat.bits_equal m expected) then
             Alcotest.fail "corrupted wire produced a WRONG answer"
         | Error _ -> ());
        Serve.Client.close c
      done;
      Alcotest.(check bool) "corruption fired" true
        ((Chaos.stats proxy).Chaos.corrupted >= 1))

let test_partial_write_reassembles () =
  with_stack
    { Chaos.none with Chaos.partial_write = 1.0; delay_ms = 1.0 }
    (fun proxy addr clean expected ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.predict ~deadline:10.0 c clean with
       | Ok (m, _) ->
         Alcotest.(check bool) "bit-identical through fragments" true
           (Linalg.Mat.bits_equal m expected)
       | Error m -> Alcotest.failf "fragmented predict failed: %s" m);
      Alcotest.(check bool) "fragmenting fired" true
        ((Chaos.stats proxy).Chaos.partial_writes >= 1))

let test_stall_times_out () =
  with_stack { Chaos.none with Chaos.stall = 1.0 }
    (fun proxy addr clean _expected ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.predict ~deadline:0.5 c clean with
       | Ok _ -> Alcotest.fail "stalled connection answered"
       | Error _ -> ());
      Alcotest.(check bool) "stall fired" true
        ((Chaos.stats proxy).Chaos.stalled >= 1))

let test_disconnect_fails_cleanly () =
  with_stack { Chaos.none with Chaos.disconnect = 1.0 }
    (fun proxy addr clean _expected ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.predict ~deadline:2.0 c clean with
       | Ok _ -> Alcotest.fail "dropped link answered"
       | Error _ -> ());
      Alcotest.(check bool) "disconnect fired" true
        ((Chaos.stats proxy).Chaos.disconnected >= 1))

(* with a fixed proxy seed the outcome is deterministic: bounded
   retries push a clean batch through a flaky wire *)
let test_retry_wins_through_faults () =
  with_stack ~seed:4242
    { Chaos.none with Chaos.corrupt = 0.25; disconnect = 0.1 }
    (fun _proxy addr clean expected ->
      let retry =
        { Serve.Client.attempts = 15; base_delay = 0.01; max_delay = 0.2;
          connect_timeout = 5.0; deadline = 5.0 }
      in
      match
        Serve.Client.predict_with_retry ~retry ~rng:(Rng.create 11) addr clean
      with
      | Ok (m, _) ->
        Alcotest.(check bool) "bit-identical after retries" true
          (Linalg.Mat.bits_equal m expected)
      | Error m -> Alcotest.failf "retries exhausted: %s" m)

(* EINTR storms: the proxy signals this very process while the server
   thread is mid-select/read; requests must still complete *)
let test_eintr_storm () =
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigusr1 previous)
  @@ fun () ->
  with_stack ~eintr_pid:(Unix.getpid ())
    { Chaos.none with Chaos.eintr_burst = 2; delay_ms = 1.0 }
    (fun proxy addr clean expected ->
      let c = Serve.Client.connect addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.predict ~deadline:10.0 c clean with
       | Ok (m, _) ->
         Alcotest.(check bool) "bit-identical under EINTR storm" true
           (Linalg.Mat.bits_equal m expected)
       | Error m -> Alcotest.failf "predict under EINTR storm failed: %s" m);
      Alcotest.(check bool) "signals fired" true
        ((Chaos.stats proxy).Chaos.eintr_signals >= 1))

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "spec strings" `Quick test_spec_strings;
        Alcotest.test_case "transparent when no fault armed" `Quick
          test_transparent_proxy;
        Alcotest.test_case "corruption never alters an answer" `Quick
          test_corrupt_never_wrong;
        Alcotest.test_case "partial writes reassemble" `Quick
          test_partial_write_reassembles;
        Alcotest.test_case "stalled connections time out" `Quick
          test_stall_times_out;
        Alcotest.test_case "disconnects fail cleanly" `Quick
          test_disconnect_fails_cleanly;
        Alcotest.test_case "retries win through a flaky wire" `Quick
          test_retry_wins_through_faults;
        Alcotest.test_case "EINTR storm" `Quick test_eintr_storm;
      ] );
  ]
