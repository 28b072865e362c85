(* The fault-injecting proxy: spec parsing, transparency when no fault
   is armed, and the core serving invariant under each injector — a
   mangled wire can fail a request but can never change an answer. *)

let artifact =
  lazy (Helpers.served_artifact ~fingerprint:"test:chaos" ~seed:7 ~dies:12)

(* real server on a thread, proxy in front, both torn down afterwards *)
let with_stack ?seed ?eintr_pid spec f =
  Helpers.with_server (Lazy.force artifact) @@ fun store clean s_addr ->
  (* wait for the server socket before pointing the proxy at it *)
  (let c = Serve.Client.connect s_addr in
   Serve.Client.close c);
  let dir =
    match s_addr with
    | Serve.Unix_sock p -> Filename.dirname p
    | Serve.Tcp _ -> assert false
  in
  let proxy =
    Chaos.start ?seed ?eintr_pid spec
      ~listen:(Serve.Unix_sock (Filename.concat dir "p.sock"))
      ~upstream:s_addr
  in
  Fun.protect
    ~finally:(fun () -> Chaos.stop proxy)
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
