(* The versioned artifact store: round-trip fidelity and fail-closed
   behaviour under every kind of on-disk damage. *)

let make_artifact seed =
  let nl =
    Circuit.Generator.generate
      { Circuit.Generator.default with num_gates = 80 + (seed mod 40); seed;
        depth = 8; num_inputs = 10; num_outputs = 8 }
  in
  let model = Timing.Variation.make_model ~levels:3 () in
  let dm = Timing.Delay_model.build nl model in
  let t_cons = Timing.Delay_model.nominal_critical_delay dm in
  let r =
    Timing.Path_extract.extract ~max_paths:400 dm ~t_cons ~yield_threshold:0.99
  in
  match r.Timing.Path_extract.paths with
  | [] -> None
  | paths ->
    let pool = Timing.Paths.build dm paths in
    let a = Timing.Paths.a_mat pool in
    let mu = Timing.Paths.mu_paths pool in
    let sel = Core.Select.approximate ~a ~mu ~eps:0.05 ~t_cons () in
    Some
      (Store.of_selection
         ~fingerprint:(Printf.sprintf "test seed=%d" seed)
         ~n_segments:(Timing.Paths.num_segments pool)
         ~t_cons ~eps:0.05 ~a ~mu sel)

let fixture = lazy (Option.get (make_artifact 11))

let expect_error label bytes check =
  match Store.of_bytes ~file:"<test>" bytes with
  | Ok _ -> Alcotest.failf "%s: corrupt artifact accepted" label
  | Error e ->
    check e;
    Alcotest.(check int)
      (label ^ ": sysexits data code")
      65 (Core.Errors.exit_code e)

(* ------------------------------------------------------------------ *)

let test_roundtrip_bytes () =
  let t = Lazy.force fixture in
  match Store.of_bytes (Store.to_bytes t) with
  | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  | Ok t' ->
    Alcotest.(check bool) "bit-exact round trip" true (Store.equal t t');
    Alcotest.(check string) "fingerprint" "test seed=11" t'.Store.fingerprint

let test_roundtrip_file () =
  let t = Lazy.force fixture in
  let path = Filename.temp_file "pathsel-test" ".psa" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  (match Store.save path t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save failed: %s" (Core.Errors.to_string e));
  match Store.load path with
  | Error e -> Alcotest.failf "load failed: %s" (Core.Errors.to_string e)
  | Ok t' -> Alcotest.(check bool) "file round trip" true (Store.equal t t')

let test_predictors_survive () =
  let t = Lazy.force fixture in
  let t' =
    match Store.of_bytes (Store.to_bytes t) with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  in
  let p = Store.predictor t and p' = Store.predictor t' in
  let r = Array.length (Core.Predictor.rep_indices p) in
  let measured = Linalg.Mat.init 7 r (fun i j -> 400.0 +. float_of_int ((3 * i) + j)) in
  let d1 = Core.Predictor.predict_all p ~measured in
  let d2 = Core.Predictor.predict_all p' ~measured in
  Alcotest.(check bool) "plain predictions identical" true
    (Linalg.Mat.equal ~tol:0.0 d1 d2);
  let rb = Store.robust t and rb' = Store.robust t' in
  let faulty = Linalg.Mat.copy measured in
  Linalg.Mat.set faulty 2 (r - 1) Float.nan;
  let r1 = Core.Robust.predict_all rb ~measured:faulty in
  let r2 = Core.Robust.predict_all rb' ~measured:faulty in
  Alcotest.(check bool) "robust predictions identical" true
    (Linalg.Mat.equal ~tol:0.0 r1.Core.Robust.predicted r2.Core.Robust.predicted)

(* the artifact saved and predicted at pool size 1, then loaded (its
   predictor rebuilt) and predicted at pool size 4 on the parallel
   kernels: both must agree bit for bit *)
let test_load_any_pool_size () =
  let t = Lazy.force fixture in
  let r = Array.length t.Store.selection.Core.Select.indices in
  let measured = Linalg.Mat.init 9 r (fun i j -> 400.0 +. float_of_int ((5 * i) - j)) in
  Linalg.Mat.set measured 4 0 Float.nan;
  let predict t =
    ( Core.Predictor.predict_all (Store.predictor t) ~measured,
      (Core.Robust.predict_all (Store.robust t) ~measured).Core.Robust.predicted )
  in
  let bytes, (plain, robust) =
    Test_par.with_pool_size 1 (fun () -> (Store.to_bytes t, predict t))
  in
  Test_par.with_pool_size 4 @@ fun () ->
  Test_par.with_low_threshold @@ fun () ->
  match Store.of_bytes bytes with
  | Error e -> Alcotest.failf "decode failed: %s" (Core.Errors.to_string e)
  | Ok t' ->
    let plain', robust' = predict t' in
    Alcotest.(check bool) "plain predictions bit-identical" true
      (Linalg.Mat.bits_equal plain plain');
    Alcotest.(check bool) "robust predictions bit-identical" true
      (Linalg.Mat.bits_equal robust robust')

let test_bad_magic () =
  let bytes = Bytes.of_string (Store.to_bytes (Lazy.force fixture)) in
  Bytes.set bytes 0 'X';
  expect_error "magic" (Bytes.to_string bytes) (function
    | Core.Errors.Bad_magic _ -> ()
    | e -> Alcotest.failf "expected Bad_magic, got %s" (Core.Errors.to_string e))

let test_future_version () =
  List.iter
    (fun v ->
      let bytes = Bytes.of_string (Store.to_bytes (Lazy.force fixture)) in
      Bytes.set_int32_le bytes 4 (Int32.of_int v);
      expect_error "version" (Bytes.to_string bytes) (function
        | Core.Errors.Version_mismatch { found; expected = 3; _ } when found = v -> ()
        | e ->
          Alcotest.failf "expected Version_mismatch %d, got %s" v
            (Core.Errors.to_string e)))
    [ 99; 2 ]

let test_truncated () =
  let s = Store.to_bytes (Lazy.force fixture) in
  List.iter
    (fun keep ->
      expect_error
        (Printf.sprintf "truncated to %d" keep)
        (String.sub s 0 keep)
        (function
          | Core.Errors.Corrupt_artifact _ -> ()
          | e ->
            Alcotest.failf "expected Corrupt_artifact, got %s"
              (Core.Errors.to_string e)))
    [ 0; 3; 10; Store.header_size; String.length s / 2; String.length s - 1 ]

let test_payload_bit_flip () =
  let s = Store.to_bytes (Lazy.force fixture) in
  let bytes = Bytes.of_string s in
  let pos = Store.header_size + ((Bytes.length bytes - Store.header_size) / 2) in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x40));
  expect_error "bit flip" (Bytes.to_string bytes) (function
    | Core.Errors.Corrupt_artifact { msg; _ } ->
      Alcotest.(check bool) "CRC named" true
        (String.length msg > 0)
    | e -> Alcotest.failf "expected Corrupt_artifact, got %s" (Core.Errors.to_string e))

let test_trailing_garbage () =
  let s = Store.to_bytes (Lazy.force fixture) in
  expect_error "trailing bytes" (s ^ "junk") (function
    | Core.Errors.Corrupt_artifact _ -> ()
    | e -> Alcotest.failf "expected Corrupt_artifact, got %s" (Core.Errors.to_string e))

(* Payloads written field by field in the version-3 layout behind a
   valid header and CRC, so that only the decoder's structural checks
   stand between each one defect and a served predictor. *)
let framed payload =
  Test_monitor.framed ~magic:Store.magic ~version:Store.current_version payload

let payload ?indices ?per_path_eps ?mu ?(trailing = "") (t : Store.t) =
  let sel = t.Store.selection in
  let indices = Option.value indices ~default:sel.Core.Select.indices in
  let w = Store.Codec.W.create () in
  Store.Codec.W.str w t.Store.fingerprint;
  Store.Codec.W.f64 w t.Store.t_cons;
  Store.Codec.W.f64 w t.Store.eps;
  Store.Codec.W.f64 w t.Store.kappa;
  Store.Codec.W.u32 w t.Store.n_segments;
  Store.Codec.W.int_array w indices;
  Store.Codec.W.u32 w sel.Core.Select.rank;
  Store.Codec.W.u32 w sel.Core.Select.effective_rank;
  Store.Codec.W.u32 w sel.Core.Select.evaluations;
  Store.Codec.W.f64 w sel.Core.Select.eps_r;
  Store.Codec.W.float_array w
    (Option.value per_path_eps
       ~default:(Array.make (t.Store.n_paths - Array.length indices) 0.01));
  Store.Codec.W.float_array w (Option.value mu ~default:t.Store.mu);
  Store.Codec.W.mat w t.Store.a_mat;
  Store.Codec.W.contents w ^ trailing

let test_inconsistent_payloads () =
  let t = Lazy.force fixture in
  let idx = t.Store.selection.Core.Select.indices in
  let n = t.Store.n_paths in
  if Array.length idx < 2 then Alcotest.fail "fixture selects fewer than 2 paths";
  Alcotest.(check bool) "hand-written layout matches the encoder" true
    (String.equal
       (framed
          (payload ~per_path_eps:t.Store.selection.Core.Select.per_path_eps t))
       (Store.to_bytes t));
  let with_idx f = let a = Array.copy idx in f a; a in
  let swap a = let x = a.(0) in a.(0) <- a.(1); a.(1) <- x in
  let last a = Array.length a - 1 in
  let mu = t.Store.mu in
  List.iter
    (fun (label, p) ->
      expect_error label (framed p) (function
        | Core.Errors.Corrupt_artifact _ -> ()
        | e ->
          Alcotest.failf "%s: expected Corrupt_artifact, got %s" label
            (Core.Errors.to_string e)))
    [
      ("empty indices", payload ~indices:[||] t);
      ("unsorted indices", payload ~indices:(with_idx swap) t);
      ("duplicate indices", payload ~indices:(with_idx (fun a -> a.(1) <- a.(0))) t);
      ("index >= rows(A)", payload ~indices:(with_idx (fun a -> a.(last a) <- n)) t);
      ("mu length <> rows(A)", payload ~mu:(Array.sub mu 0 (n - 1)) t);
      ( "per_path_eps length <> n - r",
        payload ~per_path_eps:(Array.make (n - Array.length idx + 1) 0.01) t );
      ("trailing payload bytes", payload ~trailing:"\000" t);
    ]

(* ------------------------------------------------------------------ *)
(* Crash safety *)

(* [Store.save] writes a temp file, fsyncs, and renames. Children are
   SIGKILLed at assorted points mid-save; the destination must always
   hold a loadable artifact — the old one or the new one, never a torn
   hybrid. *)
let test_kill_mid_write () =
  let v1 = Lazy.force fixture in
  let v2 = Option.get (make_artifact 12) in
  let path = Filename.temp_file "pathsel-kill" ".psa" in
  (match Store.save path v1 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "seed save failed: %s" (Core.Errors.to_string e));
  for i = 0 to 19 do
    (* stagger the kill so it lands before, during, and after the
       child's write across iterations *)
    Kill_child.run ~delay:(float_of_int (i mod 7) *. 0.0004) (fun () ->
        ignore (Store.save path v2));
    match Store.load path with
    | Error e ->
      Alcotest.failf "iteration %d: torn artifact: %s" i
        (Core.Errors.to_string e)
    | Ok t ->
      if not (Store.equal t v1 || Store.equal t v2) then
        Alcotest.failf "iteration %d: artifact is neither old nor new" i
  done;
  (* reap temp files the killed children left behind *)
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  Array.iter
    (fun f ->
      if String.length f >= String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  Sys.remove path

(* a truncated artifact *file* — e.g. a copy cut short by a full disk
   or an interrupted transfer — must surface as the same typed
   Corrupt_artifact the in-memory decoder reports, not as a parse
   crash or a silent partial load *)
let test_load_truncated_file () =
  let t = Lazy.force fixture in
  let path = Filename.temp_file "pathsel-store-trunc" ".psa" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Store.save path t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Core.Errors.to_string e));
  let full = (Unix.stat path).Unix.st_size in
  List.iter
    (fun keep ->
      Unix.truncate path keep;
      match Store.load path with
      | Ok _ -> Alcotest.failf "truncated to %d bytes: accepted" keep
      | Error (Core.Errors.Corrupt_artifact _ as e) ->
        Alcotest.(check int) "sysexits data code" 65 (Core.Errors.exit_code e)
      | Error e ->
        Alcotest.failf "truncated to %d bytes: expected Corrupt_artifact, got %s"
          keep (Core.Errors.to_string e))
    [ full - 1; full / 2; Store.header_size; 3; 0 ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip =
  QCheck.Test.make ~count:5 ~name:"save -> load is the identity (bit-exact)"
    QCheck.(int_range 1 500)
    (fun seed ->
      match make_artifact seed with
      | None -> QCheck.assume_fail ()
      | Some t ->
        (match Store.of_bytes (Store.to_bytes t) with
         | Ok t' -> Store.equal t t'
         | Error e -> QCheck.Test.fail_report (Core.Errors.to_string e)))

(* one property over both files the framed container carries: a PSA1
   artifact and a PSC1 monitor checkpoint *)
let prop_any_byte_flip_rejected =
  let inputs =
    lazy
      [
        ( Store.to_bytes (Lazy.force fixture),
          fun s -> Result.map ignore (Store.of_bytes s) );
        ( Test_monitor.checkpoint_bytes ~gen:1 (Test_monitor.uninterrupted 12),
          fun s -> Result.map ignore (Test_monitor.load_checkpoint_bytes s) );
      ]
  in
  QCheck.Test.make ~count:60
    ~name:"flipping any single byte yields a typed error with exit code 65"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos, mask) ->
      List.for_all
        (fun (s, decode) ->
          let pos = pos mod String.length s in
          let bytes = Bytes.of_string s in
          Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor mask));
          match decode (Bytes.to_string bytes) with
          | Ok () -> QCheck.Test.fail_report "corrupted file accepted"
          | Error e -> Core.Errors.exit_code e = 65)
        (Lazy.force inputs))

(* Mutated PSA1 payloads re-sealed under a valid header and CRC, so
   every one reaches the decoder: each loads (and then re-encodes to
   the same bytes) or is a typed error, and none raises. *)
let test_payload_fuzz () =
  let canonical t = Test_monitor.payload_of (Store.to_bytes t) in
  Test_monitor.fuzz_decoder ~name:"Store.of_bytes"
    ~decode:(fun p -> Store.of_bytes (framed p))
    ~encode:canonical
    (List.map canonical [ Lazy.force fixture; Option.get (make_artifact 12) ]);
  (* values a random byte rarely makes, written over every entry of the
     representatives' rows of A (a singular or non-finite Gram block),
     or over one entry of mu *)
  let t = Lazy.force fixture in
  let idx = t.Store.selection.Core.Select.indices in
  let per_path_eps = t.Store.selection.Core.Select.per_path_eps in
  List.iter
    (fun v ->
      let a = Linalg.Mat.copy t.Store.a_mat in
      let _, m = Linalg.Mat.dims a in
      Array.iter (fun i -> Linalg.Mat.set_row a i (Array.make m v)) idx;
      let mu = Array.copy t.Store.mu in
      mu.(idx.(0)) <- v;
      List.iter
        (fun (what, p) ->
          match Store.of_bytes (framed p) with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s set to %h: raised %s" what v (Printexc.to_string e))
        [
          ("representative rows of A", payload ~per_path_eps { t with Store.a_mat = a });
          ("one entry of mu", payload ~per_path_eps { t with Store.mu });
        ])
    [ 0.0; Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; 4.9e-324 ]

(* ------------------------------------------------------------------ *)
(* CRC-32: the table-driven [Codec.crc32] against the definition, one
   bit at a time (reflected, polynomial 0xEDB88320) *)

let bitwise_crc32 ?(pos = 0) s =
  let c = ref 0xFFFFFFFF in
  for i = pos to String.length s - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_pinned () =
  Alcotest.(check int) "check value" 0xCBF43926 (Store.Codec.crc32 "123456789");
  let rng = Rng.create 17 in
  let random_string n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
  for n = 0 to 64 do
    for _ = 1 to 4 do
      let s = random_string n in
      for pos = 0 to n + 1 do
        if Store.Codec.crc32 ~pos s <> bitwise_crc32 ~pos s then
          Alcotest.failf "crc32 ~pos:%d of %S" pos s
      done
    done
  done;
  let big = random_string (1 lsl 20) in
  List.iter
    (fun pos ->
      Alcotest.(check int) (Printf.sprintf "1 MB from %d" pos) (bitwise_crc32 ~pos big)
        (Store.Codec.crc32 ~pos big))
    [ 0; 1; 7; 20 ]

(* an artifact framed by hand around the bitwise CRC is the encoder's
   bytes, and loads *)
let test_bitwise_framed_artifact_loads () =
  let t = Lazy.force fixture in
  let s = Store.to_bytes t in
  let payload = String.sub s Store.header_size (String.length s - Store.header_size) in
  let b = Buffer.create (String.length s) in
  Buffer.add_string b Store.magic;
  Buffer.add_int32_le b (Int32.of_int Store.current_version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (bitwise_crc32 payload));
  Buffer.add_string b payload;
  let framed = Buffer.contents b in
  Alcotest.(check bool) "same bytes as the encoder" true (String.equal framed s);
  match Store.of_bytes framed with
  | Ok t' -> Alcotest.(check bool) "loads equal" true (Store.equal t t')
  | Error e -> Alcotest.failf "load: %s" (Core.Errors.to_string e)

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "round trip (bytes)" `Quick test_roundtrip_bytes;
        Alcotest.test_case "round trip (file)" `Quick test_roundtrip_file;
        Alcotest.test_case "predictors survive the trip" `Quick
          test_predictors_survive;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "future version" `Quick test_future_version;
        Alcotest.test_case "truncation" `Quick test_truncated;
        Alcotest.test_case "payload bit flip" `Quick test_payload_bit_flip;
        Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
        Alcotest.test_case "kill mid-write leaves old or new, never torn"
          `Quick test_kill_mid_write;
        Alcotest.test_case "truncated artifact file is a typed error" `Quick
          test_load_truncated_file;
        Alcotest.test_case "structurally inconsistent payloads fail closed"
          `Quick test_inconsistent_payloads;
        Alcotest.test_case "loading does not depend on the pool size" `Quick
          test_load_any_pool_size;
        Alcotest.test_case "mutated payloads under a valid CRC never raise" `Quick
          test_payload_fuzz;
        Alcotest.test_case "crc32 equals the bitwise definition" `Quick test_crc32_pinned;
        Alcotest.test_case "an artifact framed with the bitwise CRC loads" `Quick
          test_bitwise_framed_artifact_loads;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_any_byte_flip_rejected;
      ] );
  ]
