(* Tests for the project linter (tools/lint): a fixture corpus of
   known-bad snippets, one positive and one negative case per rule,
   plus suppression-comment and output-format coverage. Snippets are
   linted from strings via [Lint.lint_source] — the [path] argument
   drives the directory-scoped rules, no files are written. *)

let fired rule diags = List.exists (fun d -> d.Lint.rule = rule) diags

let count rule diags =
  List.length (List.filter (fun d -> d.Lint.rule = rule) diags)

let lint ?(path = "lib/timing/example.ml") src = Lint.lint_source ~path src

let check_fires rule ?path src () =
  let diags = lint ?path src in
  if not (fired rule diags) then
    Alcotest.failf "expected rule %s to fire; got [%s]" rule
      (String.concat "; " (List.map Lint.render_text diags))

let check_silent rule ?path src () =
  let diags = lint ?path src in
  if fired rule diags then
    Alcotest.failf "expected rule %s to stay silent; got [%s]" rule
      (String.concat "; " (List.map Lint.render_text diags))

(* ------------------------------------------------------------------ *)
(* Rule corpus: (rule, bad snippet in a generic lib file, good snippet
   or same snippet at an allowed path) *)

let raw_domain_bad = "let d = Domain.spawn (fun () -> 1)\nlet () = Domain.join d"

let self_init_bad = "let () = Random.self_init ()"
let ambient_random_bad = "let x = Random.int 7"

let unsafe_bad = "let f a = Array.unsafe_get a 0"
let unsafe_bigarray_bad = "let f a i = Bigarray.Array1.unsafe_get a i"

let float_eq_bad = "let f x = x = 0.0"
let float_neq_bad = "let f x = x <> 1.5"
let float_eq_expr_bad = "let f x y = (x +. y) = x"
let float_eq_annot_bad = "let f x y = (x : float) = y"
let int_eq_good = "let f x = x = 0"

let catchall_bad = "let f g = try g () with _ -> 0"
let catchall_ignore_bad = "let f g = try g () with e -> ignore e"
let catch_typed_good = "let f g = try g () with Not_found -> 0"

let exit_bad = "let f () = exit 1"
let failwith_bad = "let f () = failwith \"boom\""

let par_ref_bad =
  "let total = ref 0\n\
   let f n = Par.Pool.parallel_for 0 n (fun i -> total := !total + i)"

let unbounded_read_bad = "let f fd buf = Unix.read fd buf 0 (Bytes.length buf)"
let unbounded_write_bad = "let f fd b = Unix.write fd b 0 (Bytes.length b)"
let unbounded_connect_bad = "let f fd sa = Unix.connect fd sa"

let par_local_ref_good =
  "let f n =\n\
  \  let total = ref 0 in\n\
  \  Par.Pool.parallel_for 0 n (fun i -> ignore i);\n\
  \  !total"

let wal_write_bad = "let journal wal_fd b = Unix.write wal_fd b 0 (Bytes.length b)"

let wal_write_field_bad =
  "let journal t b = Unix.single_write t.wal_fd b 0 (Bytes.length b)"

let wal_write_string_bad = "let touch fd = Unix.write_substring fd \"wal-header\" 0 3"
let plain_write_good = "let f fd b = Unix.write fd b 0 (Bytes.length b)"

let monitor_mutex_bad = "let f m = Mutex.lock m"
let monitor_condwait_bad = "let f c m = Condition.wait c m"
let monitor_join_bad = "let f t = Thread.join t"
let monitor_select_bad = "let f fd = Unix.select [ fd ] [] [] 0.25"

let dense_pool_bad = "let f sp = Linalg.Sparse.to_dense sp"
let dense_pool_mat_bad = "let f rows = Linalg.Mat.of_rows rows"

let dense_pool_good =
  "let f t xt = Linalg.Sparse.mul_dense_nt (Linalg.Sparse.mul_dense_nt xt t.sigma) t.g"

let monitor_atomic_good =
  "let q = Atomic.make []\n\
   let push x =\n\
  \  let rec go () =\n\
  \    let old = Atomic.get q in\n\
  \    if not (Atomic.compare_and_set q old (x :: old)) then go ()\n\
  \  in\n\
  \  go ()\n\
   let drain () = Atomic.exchange q []"

(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    (* each rule: fires on bad input *)
    ("no-raw-domain fires", check_fires "no-raw-domain" raw_domain_bad);
    ("no-self-init fires on self_init", check_fires "no-self-init" self_init_bad);
    ( "no-self-init fires on ambient Random",
      check_fires "no-self-init" ambient_random_bad );
    ("unsafe-array fires", check_fires "unsafe-array" unsafe_bad);
    ("unsafe-array fires on Bigarray", check_fires "unsafe-array" unsafe_bigarray_bad);
    ("no-float-eq fires on (=) literal", check_fires "no-float-eq" float_eq_bad);
    ("no-float-eq fires on (<>)", check_fires "no-float-eq" float_neq_bad);
    ("no-float-eq fires on float expression", check_fires "no-float-eq" float_eq_expr_bad);
    ("no-float-eq fires on annotation", check_fires "no-float-eq" float_eq_annot_bad);
    ("no-catchall fires on _", check_fires "no-catchall" catchall_bad);
    ("no-catchall fires on ignore e", check_fires "no-catchall" catchall_ignore_bad);
    ("no-exit fires on exit", check_fires "no-exit" exit_bad);
    ("no-exit fires on failwith", check_fires "no-exit" failwith_bad);
    ("mutable-global-in-par fires", check_fires "mutable-global-in-par" par_ref_bad);
    (* each rule: negative case *)
    ( "no-raw-domain allowed in lib/par/",
      check_silent "no-raw-domain" ~path:"lib/par/pool.ml" raw_domain_bad );
    ( "ambient Random allowed in lib/rng/",
      check_silent "no-self-init" ~path:"lib/rng/rng.ml" ambient_random_bad );
    ( "Random.self_init banned even in lib/rng/",
      check_fires "no-self-init" ~path:"lib/rng/rng.ml" self_init_bad );
    ( "unsafe-array allowed in allowlisted kernel",
      check_silent "unsafe-array" ~path:"lib/linalg/mat.ml" unsafe_bad );
    ( "unsafe-array allowed in the CSR kernels",
      check_silent "unsafe-array" ~path:"lib/linalg/sparse.ml" unsafe_bad );
    ("no-float-eq silent on int (=)", check_silent "no-float-eq" int_eq_good);
    ( "no-float-eq silent on Float.equal",
      check_silent "no-float-eq" "let f x = Float.equal x 0.0" );
    ("no-catchall silent on typed handler", check_silent "no-catchall" catch_typed_good);
    ( "no-catchall allowed in lib/core/errors.ml",
      check_silent "no-catchall" ~path:"lib/core/errors.ml" catchall_bad );
    ( "no-exit silent outside lib/",
      check_silent "no-exit" ~path:"bin/pathsel.ml" exit_bad );
    ( "mutable-global-in-par silent on region-local ref",
      check_silent "mutable-global-in-par" par_local_ref_good );
    (* no-unbounded-io: raw socket calls in serving code must go
       through the deadline-carrying Serve.Io wrappers *)
    ( "no-unbounded-io fires on Unix.read in lib/serve",
      check_fires "no-unbounded-io" ~path:"lib/serve/serve.ml" unbounded_read_bad );
    ( "no-unbounded-io fires on Unix.write in lib/chaos",
      check_fires "no-unbounded-io" ~path:"lib/chaos/chaos.ml" unbounded_write_bad );
    ( "no-unbounded-io fires on Unix.connect",
      check_fires "no-unbounded-io" ~path:"lib/serve/client.ml"
        unbounded_connect_bad );
    ( "no-unbounded-io silent in the wrapper file",
      check_silent "no-unbounded-io" ~path:"lib/serve/io.ml" unbounded_read_bad );
    ( "no-unbounded-io silent outside serving code",
      check_silent "no-unbounded-io" ~path:"lib/store/store.ml"
        unbounded_write_bad );
    ( "no-unbounded-io silent on select/accept",
      check_silent "no-unbounded-io" ~path:"lib/serve/serve.ml"
        "let f fd = Unix.select [ fd ] [] [] 0.25, Unix.accept fd" );
    (* no-blocking-in-monitor: the self-healing loop shares state with
       the serving path through Atomic snapshots only *)
    ( "no-blocking-in-monitor fires on Mutex.lock",
      check_fires "no-blocking-in-monitor" ~path:"lib/serve/monitor.ml"
        monitor_mutex_bad );
    ( "no-blocking-in-monitor fires on Condition.wait",
      check_fires "no-blocking-in-monitor" ~path:"lib/serve/monitor.ml"
        monitor_condwait_bad );
    ( "no-blocking-in-monitor fires on Thread.join",
      check_fires "no-blocking-in-monitor" ~path:"lib/serve/monitor.ml"
        monitor_join_bad );
    ( "no-blocking-in-monitor fires on Unix.select",
      check_fires "no-blocking-in-monitor" ~path:"lib/serve/monitor.ml"
        monitor_select_bad );
    ( "no-blocking-in-monitor silent outside the monitor",
      check_silent "no-blocking-in-monitor" ~path:"lib/serve/serve.ml"
        monitor_mutex_bad );
    ( "no-blocking-in-monitor silent on lock-free Atomic code",
      check_silent "no-blocking-in-monitor" ~path:"lib/serve/monitor.ml"
        monitor_atomic_good );
    (* no-dense-pool: the streaming pool front-end must stay CSR and be
       consumed through the mat-mul operator *)
    ( "no-dense-pool fires on Sparse.to_dense",
      check_fires "no-dense-pool" ~path:"lib/timing/pool_stream.ml"
        dense_pool_bad );
    ( "no-dense-pool fires on Mat.of_rows",
      check_fires "no-dense-pool" ~path:"lib/timing/pool_stream.ml"
        dense_pool_mat_bad );
    ( "no-dense-pool silent on CSR mat-mul",
      check_silent "no-dense-pool" ~path:"lib/timing/pool_stream.ml"
        dense_pool_good );
    ( "no-dense-pool silent outside the streaming front-end",
      check_silent "no-dense-pool" ~path:"lib/timing/paths.ml" dense_pool_bad );
    (* no-unfsynced-wal: raw writes to wal-named fds/paths belong in
       Store.Wal, whose frame CRC + fsync is the journal-before-ack
       durability point *)
    ( "no-unfsynced-wal fires on a wal-named descriptor",
      check_fires "no-unfsynced-wal" wal_write_bad );
    ( "no-unfsynced-wal fires through a record field",
      check_fires "no-unfsynced-wal" wal_write_field_bad );
    ( "no-unfsynced-wal fires on a wal-named path literal",
      check_fires "no-unfsynced-wal" wal_write_string_bad );
    ( "no-unfsynced-wal silent inside Store.Wal",
      check_silent "no-unfsynced-wal" ~path:"lib/store/wal.ml" wal_write_bad );
    ( "no-unfsynced-wal silent on non-wal descriptors",
      check_silent "no-unfsynced-wal" plain_write_good );
    ( "no-unfsynced-wal honors allow-next",
      check_silent "no-unfsynced-wal"
        ("(* lint: allow-next no-unfsynced-wal *)\n" ^ wal_write_bad) );
    (* suppression comments *)
    ( "suppression silences a rule",
      check_silent "no-float-eq" ("(* lint: allow no-float-eq *)\n" ^ float_eq_bad) );
    ( "suppression of one rule leaves others live",
      check_fires "no-exit"
        ("(* lint: allow no-float-eq *)\n" ^ float_eq_bad ^ "\n" ^ failwith_bad) );
    ( "multi-rule suppression",
      check_silent "no-exit"
        ("(* lint: allow no-float-eq no-exit *)\n" ^ float_eq_bad ^ "\n" ^ failwith_bad)
    );
    (* line-scoped suppression: allow-next covers exactly the line
       after the comment, for exactly the named rule *)
    ( "allow-next silences the next line",
      check_silent "no-float-eq" ("(* lint: allow-next no-float-eq *)\n" ^ float_eq_bad)
    );
    ( "allow-next does not reach past one line",
      check_fires "no-float-eq"
        ("(* lint: allow-next no-float-eq *)\nlet ok = 1\n" ^ float_eq_bad) );
    ( "allow-next silences only the named rule",
      check_silent "no-float-eq"
        "(* lint: allow-next no-float-eq *)\n\
         let f x = if x = 1.0 then failwith \"boom\" else ()" );
    ( "allow-next leaves other rules on the line live",
      check_fires "no-exit"
        "(* lint: allow-next no-float-eq *)\n\
         let f x = if x = 1.0 then failwith \"boom\" else ()" );
  ]

(* ------------------------------------------------------------------ *)
(* Engine-level behaviour *)

let test_severities () =
  let diags = lint (float_eq_bad ^ "\n" ^ par_ref_bad) in
  Alcotest.(check bool) "float-eq is error" true
    (List.exists
       (fun d -> d.Lint.rule = "no-float-eq" && d.Lint.severity = Lint.Error)
       diags);
  Alcotest.(check bool) "mutable-global-in-par is warning" true
    (List.exists
       (fun d ->
         d.Lint.rule = "mutable-global-in-par" && d.Lint.severity = Lint.Warning)
       diags);
  (* warnings alone don't fail the build *)
  Alcotest.(check bool) "has_errors on error" true (Lint.has_errors diags);
  Alcotest.(check bool) "warnings alone pass" false
    (Lint.has_errors (lint par_ref_bad))

let test_locations () =
  let diags = lint ("let ok = 1\n" ^ float_eq_bad) in
  match List.filter (fun d -> d.Lint.rule = "no-float-eq") diags with
  | [ d ] ->
    Alcotest.(check int) "line" 2 d.Lint.line;
    Alcotest.(check string) "file" "lib/timing/example.ml" d.Lint.file
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_json_output () =
  let diags = lint float_eq_bad in
  let json = Lint.render_json diags in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  let has needle =
    let ln = String.length needle and n = String.length json in
    let rec go i = i + ln <= n && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rule field" true (has "\"rule\":\"no-float-eq\"");
  Alcotest.(check bool) "severity field" true (has "\"severity\":\"error\"")

(* The JSON renderer must survive a real parser, not just a substring
   check: escaping bugs (quotes, backslashes, control bytes) are
   exactly the class a round-trip through [Serve.Wire.parse] catches. *)
let test_json_roundtrip () =
  let d =
    {
      Lint.rule = "no-float-eq";
      severity = Lint.Error;
      file = "lib/odd \"name\"\\dir.ml";
      line = 3;
      col = 7;
      message = "quote \" backslash \\ newline \n tab \t control \x01 end";
    }
  in
  match Serve.Wire.parse (Lint.render_json [ d ]) with
  | Error e -> Alcotest.failf "render_json output is not valid JSON: %s" e
  | Ok (Serve.Wire.List [ obj ]) ->
    let str k =
      match Serve.Wire.member k obj with
      | Some (Serve.Wire.String s) -> s
      | _ -> Alcotest.failf "missing string field %s" k
    in
    Alcotest.(check string) "message round-trips" d.Lint.message (str "message");
    Alcotest.(check string) "file round-trips" d.Lint.file (str "file");
    Alcotest.(check string) "rule round-trips" d.Lint.rule (str "rule");
    Alcotest.(check bool) "line round-trips" true
      (Serve.Wire.member "line" obj = Some (Serve.Wire.Int 3));
    Alcotest.(check bool) "col round-trips" true
      (Serve.Wire.member "col" obj = Some (Serve.Wire.Int 7))
  | Ok _ -> Alcotest.fail "expected a one-element JSON array"

(* SARIF 2.1.0: the minimal shape CI annotators consume, validated
   field-by-field after a parse. Regions are 1-based, ours are 0-based
   columns — the renderer owns the + 1. *)
let test_sarif_shape () =
  let d =
    {
      Lint.rule = "no-float-eq";
      severity = Lint.Warning;
      file = "lib/a.ml";
      line = 2;
      col = 4;
      message = "float \"eq\"";
    }
  in
  let open Serve.Wire in
  let get k j =
    match member k j with Some v -> v | None -> Alcotest.failf "missing field %s" k
  in
  match parse (Lint.render_sarif ~tool:"pathsel-lint" ~rules:Lint.rules [ d ]) with
  | Error e -> Alcotest.failf "render_sarif output is not valid JSON: %s" e
  | Ok j ->
    Alcotest.(check bool) "version" true (member "version" j = Some (String "2.1.0"));
    let run =
      match get "runs" j with
      | List [ r ] -> r
      | _ -> Alcotest.fail "expected exactly one run"
    in
    let driver = get "driver" (get "tool" run) in
    Alcotest.(check bool) "tool name" true
      (member "name" driver = Some (String "pathsel-lint"));
    (match get "rules" driver with
     | List rules ->
       Alcotest.(check int) "rule table is complete" (List.length Lint.rules)
         (List.length rules)
     | _ -> Alcotest.fail "expected a rule array");
    let result =
      match get "results" run with
      | List [ r ] -> r
      | _ -> Alcotest.fail "expected exactly one result"
    in
    Alcotest.(check bool) "ruleId" true
      (member "ruleId" result = Some (String "no-float-eq"));
    Alcotest.(check bool) "level" true (member "level" result = Some (String "warning"));
    let region =
      match get "locations" result with
      | List [ l ] -> get "region" (get "physicalLocation" l)
      | _ -> Alcotest.fail "expected exactly one location"
    in
    Alcotest.(check bool) "startLine" true (member "startLine" region = Some (Int 2));
    Alcotest.(check bool) "startColumn is 1-based" true
      (member "startColumn" region = Some (Int 5))

let test_syntax_error () =
  let diags = lint "let let let" in
  Alcotest.(check bool) "syntax diagnostic" true (fired "syntax" diags);
  Alcotest.(check bool) "syntax is error" true (Lint.has_errors diags)

let test_double_violation_counts () =
  let diags = lint (float_eq_bad ^ "\nlet g y = y = 2.5") in
  Alcotest.(check int) "both sites reported" 2 (count "no-float-eq" diags)

let test_repo_tree_is_clean () =
  (* the acceptance invariant, as a test: zero unsuppressed errors on
     the real tree. Skipped when the sources aren't alongside the test
     binary (e.g. installed-package runs). *)
  if Sys.file_exists "lib" && Sys.file_exists "tools" then begin
    let diags = Lint.lint_paths [ "lib"; "bin"; "bench" ] in
    let errs = List.filter (fun d -> d.Lint.severity = Lint.Error) diags in
    if errs <> [] then
      Alcotest.failf "repository tree has lint errors:\n%s"
        (String.concat "\n" (List.map Lint.render_text errs))
  end

(* ------------------------------------------------------------------ *)
(* Companion runtime-contract layer (Checks) *)

let with_checks enabled f =
  let prev = Checks.on () in
  Checks.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Checks.set_enabled prev) f

let test_checks_nan_introduction () =
  (* inf * 0 inside the kernel: NaN from NaN-free inputs must trip *)
  with_checks true (fun () ->
      let a = Linalg.Mat.of_arrays [| [| Float.infinity |] |] in
      let b = Linalg.Mat.of_arrays [| [| 0.0 |] |] in
      match Linalg.Mat.mul a b with
      | _ -> Alcotest.fail "expected Contract_violation"
      | exception Checks.Contract_violation _ -> ())

let test_checks_nan_passthrough () =
  (* NaN already in the inputs is the robust layer's business *)
  with_checks true (fun () ->
      let a = Linalg.Mat.of_arrays [| [| Float.nan |] |] in
      let b = Linalg.Mat.of_arrays [| [| 1.0 |] |] in
      let c = Linalg.Mat.mul a b in
      Alcotest.(check bool) "nan propagates unflagged" true
        (Float.is_nan (Linalg.Mat.get c 0 0)))

let test_checks_off_is_silent () =
  with_checks false (fun () ->
      let a = Linalg.Mat.of_arrays [| [| Float.infinity |] |] in
      let b = Linalg.Mat.of_arrays [| [| 0.0 |] |] in
      let c = Linalg.Mat.mul a b in
      Alcotest.(check bool) "disabled checks never raise" true
        (Float.is_nan (Linalg.Mat.get c 0 0)))

let test_checks_predictor_dims () =
  with_checks true (fun () ->
      let a =
        Linalg.Mat.of_arrays
          [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |]
      in
      let p = Core.Predictor.build ~a ~mu:[| 0.0; 0.0; 0.0 |] ~rep:[| 0; 1 |] in
      let out = Core.Predictor.predict p ~measured:[| 1.0; 2.0 |] in
      Alcotest.(check int) "one remaining path" 1 (Array.length out))

let engine_tests =
  [
    ("severities and exit policy", test_severities);
    ("checks: NaN introduction trips", test_checks_nan_introduction);
    ("checks: input NaN passes through", test_checks_nan_passthrough);
    ("checks: disabled layer is silent", test_checks_off_is_silent);
    ("checks: predictor contracts hold", test_checks_predictor_dims);
    ("locations point at the construct", test_locations);
    ("json output", test_json_output);
    ("json round-trips through the wire parser", test_json_roundtrip);
    ("sarif output shape", test_sarif_shape);
    ("syntax errors become diagnostics", test_syntax_error);
    ("every violation is reported", test_double_violation_counts);
    ("repo tree is lint-clean", test_repo_tree_is_clean);
  ]

let suites =
  [
    ( "lint",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        (unit_tests @ engine_tests) );
  ]
