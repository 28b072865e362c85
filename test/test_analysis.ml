(* Fixture corpus for the whole-program typedtree analyzer
   (tools/lint's [Analysis]). Every fixture is typechecked in-process
   via [Analysis.analyze_sources], so the corpus needs no files on
   disk and no separate compiler invocation; the [path] of each
   snippet is what lands it inside (or deliberately outside) the
   analyzer's directory scopes. Per rule family the corpus holds a
   true positive, a true negative, a line-scoped suppression, and —
   the reason the analyzer exists — an interprocedural case the
   syntactic linter provably misses. *)

let fired rule diags = List.exists (fun d -> d.Lint.rule = rule) diags

let show diags = String.concat "; " (List.map Lint.render_text diags)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Entry points live in Fix_-prefixed modules so the in-process
   typechecker can never confuse a fixture with a real library. *)
let cfg =
  {
    Analysis.default_config with
    monitor_entries = [ "Fix_mon.tick" ];
    serving_entries = [ "Fix_srv.handle" ];
    handler_entries = [ "Fix_srv.handle" ];
    io_wrapper_modules = [ "Fix_io" ];
  }

let analyze mods = Analysis.analyze_sources ~config:cfg mods

let check_fires rule mods () =
  let diags = analyze mods in
  if not (fired rule diags) then
    Alcotest.failf "expected %s to fire; got [%s]" rule (show diags)

let check_silent rule mods () =
  let diags = analyze mods in
  if fired rule diags then
    Alcotest.failf "expected %s to stay silent; got [%s]" rule (show diags)

(* ------------------------------------------------------------------ *)
(* Blocking reachability: monitor side *)

let mon_locks_directly = "let m = Mutex.create ()\nlet tick () = Mutex.lock m"

let helper_locks =
  "let m = Mutex.create ()\n\
   let guarded f = Mutex.lock m; let r = f () in Mutex.unlock m; r"

(* no blocking token appears in this module's own text *)
let mon_via_helper =
  "let state = ref 0\nlet tick () = Fix_helper.guarded (fun () -> incr state)"

let mon_lockfree =
  "let state = Atomic.make 0\nlet tick () = Atomic.set state (Atomic.get state + 1)"

let helper_locks_suppressed =
  "let m = Mutex.create ()\n\
   (* bounded handshake, never shared with serving: fixture justification *)\n\
   (* lint: allow-next monitor-blocking *)\n\
   let guarded f = Mutex.lock m; let r = f () in Mutex.unlock m; r"

(* The acceptance fixture: a helper module takes a lock, monitor code
   only calls the helper. The old syntactic [no-blocking-in-monitor]
   sees no blocking token in the monitor file and stays silent; the
   interprocedural analysis follows the call edge and anchors the
   diagnostic at the lock site with the full chain. *)
let test_cross_module_lock_beats_syntactic () =
  let syntactic = Lint.lint_source ~path:"lib/serve/monitor.ml" mon_via_helper in
  if fired "no-blocking-in-monitor" syntactic then
    Alcotest.fail "syntactic rule unexpectedly caught the cross-module lock";
  let diags =
    analyze
      [
        ("Fix_helper", "lib/serve/fix_helper.ml", helper_locks);
        ("Fix_mon", "lib/serve/fix_mon.ml", mon_via_helper);
      ]
  in
  match List.filter (fun d -> d.Lint.rule = "monitor-blocking") diags with
  | [] -> Alcotest.failf "analyzer missed the cross-module lock; got [%s]" (show diags)
  | d :: _ ->
    Alcotest.(check string) "anchored at the lock site" "lib/serve/fix_helper.ml"
      d.Lint.file;
    Alcotest.(check bool) "chain names the entry point" true
      (contains d.Lint.message "Fix_mon.tick -> Fix_helper.guarded")

(* The converse: the analyzer sees only code reachable from its entry
   points, while the syntactic rules cover whole files. A lock in a
   monitor.ml function that only the serving side calls (the shape of
   Monitor.submit), and a raw write in a lib/serve function no handler
   reaches (the shape of a client's close), are caught by the syntactic
   rules alone, so neither rule is redundant with the analyzer. *)

let mon_submit_locks =
  "let m = Mutex.create ()\n\
   let tick () = ()\n\
   let submit () = Mutex.lock m; Mutex.unlock m"

let srv_calls_submit = "let handle () = Fix_mon.submit ()"

let srv_unreached_write =
  "let handle () = ()\n\
   let close fd = ignore (Unix.write fd (Bytes.create 1) 0 1)"

let check_syntactic_only rule mods () =
  let path, src =
    match mods with
    | (_, path, src) :: _ -> (path, src)
    | [] -> invalid_arg "check_syntactic_only: no modules"
  in
  let syntactic = Lint.lint_source ~path src in
  if not (fired rule syntactic) then
    Alcotest.failf "expected syntactic %s to fire; got [%s]" rule (show syntactic);
  let diags = analyze mods in
  if diags <> [] then
    Alcotest.failf "expected the analyzer to stay silent; got [%s]" (show diags)

(* ------------------------------------------------------------------ *)
(* Blocking reachability: deadline-scoped handlers *)

let util_naps = "let nap () = Unix.sleepf 0.001"
let srv_calls_nap = "let handle () = Fix_util.nap ()"

let util_naps_suppressed =
  "(* lint: allow-next handler-blocking *)\nlet nap () = Unix.sleepf 0.001"

let io_wrapper = "let recv () = Unix.sleepf 0.0005"
let srv_via_io = "let handle () = Fix_io.recv ()"

(* ------------------------------------------------------------------ *)
(* Shared-mutable race discipline *)

let race_state =
  "type t = { mutable cur : int }\n\
   let cell = { cur = 0 }\n\
   let bump () = cell.cur <- cell.cur + 1\n\
   let read () = cell.cur"

let race_state_suppressed =
  "type t = { mutable cur : int }\n\
   let cell = { cur = 0 }\n\
   (* guarded by an external mutex in this fixture's story *)\n\
   (* lint: allow-next shared-mutable-race *)\n\
   let bump () = cell.cur <- cell.cur + 1\n\
   let read () = cell.cur"

let ref_state = "let hits = ref 0\nlet bump () = incr hits\nlet read () = !hits"

let atomic_state =
  "let cell = Atomic.make 0\n\
   let bump () = Atomic.incr cell\n\
   let read () = Atomic.get cell"

let mon_bumps = "let tick () = Fix_state.bump ()"
let srv_reads = "let handle () = Fix_state.read ()"

let race_trio state_src state_path =
  [
    ("Fix_state", state_path, state_src);
    ("Fix_mon", "lib/serve/fix_mon.ml", mon_bumps);
    ("Fix_srv", "lib/serve/fix_srv.ml", srv_reads);
  ]

let test_race_names_both_sides () =
  let diags = analyze (race_trio race_state "lib/serve/fix_state.ml") in
  match List.filter (fun d -> d.Lint.rule = "shared-mutable-race") diags with
  | [] -> Alcotest.failf "expected a race diagnostic; got [%s]" (show diags)
  | d :: _ ->
    Alcotest.(check string) "anchored at the monitor-side write"
      "lib/serve/fix_state.ml" d.Lint.file;
    Alcotest.(check bool) "names the location key" true
      (contains d.Lint.message "Fix_state.t.cur");
    Alcotest.(check bool) "names the monitor chain" true
      (contains d.Lint.message "Fix_mon.tick -> Fix_state.bump");
    Alcotest.(check bool) "names the serving chain" true
      (contains d.Lint.message "Fix_srv.handle -> Fix_state.read")

(* ------------------------------------------------------------------ *)
(* fd-leak tracking *)

let fd_path = "lib/store/fix_fd.ml"

let fd_leak_plain =
  "let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  Unix.isatty fd"

let fd_leak_exn =
  "let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  let _pos = Unix.lseek fd 4 Unix.SEEK_SET in\n\
  \  Unix.close fd"

let fd_closed =
  "let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  Unix.close fd"

let fd_protected =
  "let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  Fun.protect ~finally:(fun () -> Unix.close fd)\n\
  \    (fun () -> let _pos = Unix.lseek fd 4 Unix.SEEK_SET in ())"

let fd_transferred =
  "let q : Unix.file_descr Queue.t = Queue.create ()\n\
   let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  Queue.add fd q"

(* [open_ro] hands its descriptor to the caller (clean); [probe] then
   leaks it — only the second round, with [open_ro] in the derived
   creator set, can see that *)
let fd_wrapper =
  "let open_ro path = let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in fd\n\
   let probe path =\n\
  \  let fd = open_ro path in\n\
  \  Unix.isatty fd"

let fd_closer_wrapper =
  "let shut fd = Unix.close fd\n\
   let probe path =\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  shut fd"

let fd_leak_suppressed =
  "let probe path =\n\
  \  (* descriptor deliberately parked for the process lifetime *)\n\
  \  (* lint: allow-next fd-leak *)\n\
  \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
  \  Unix.isatty fd"

let test_fd_wrapper_composes () =
  let diags = analyze [ ("Fix_fd", fd_path, fd_wrapper) ] in
  match List.filter (fun d -> d.Lint.rule = "fd-leak") diags with
  | [] -> Alcotest.failf "expected the wrapper's caller to leak; got [%s]" (show diags)
  | [ d ] ->
    Alcotest.(check bool) "blames the wrapper as creator" true
      (contains d.Lint.message "Fix_fd.open_ro");
    Alcotest.(check bool) "flags the caller, not the wrapper" true
      (contains d.Lint.message "Fix_fd.probe")
  | ds -> Alcotest.failf "expected exactly one leak, got %d: [%s]" (List.length ds) (show ds)

let test_fd_exception_edge_message () =
  let diags = analyze [ ("Fix_fd", fd_path, fd_leak_exn) ] in
  match List.filter (fun d -> d.Lint.rule = "fd-leak") diags with
  | [ d ] ->
    Alcotest.(check bool) "names the raising call" true
      (contains d.Lint.message "leaks if Unix.lseek raises")
  | ds -> Alcotest.failf "expected exactly one leak, got %d: [%s]" (List.length ds) (show ds)

(* ------------------------------------------------------------------ *)
(* WAL/checkpoint descriptors: the journal's segment fds live in
   lib/store and get the same leak tracking as every other descriptor *)

let wal_fd_path = "lib/store/fix_wal.ml"

let wal_fd_leak =
  "let open_segment dir =\n\
  \  let fd =\n\
  \    Unix.openfile (Filename.concat dir \"wal-1.log\") [ Unix.O_WRONLY ] 0o644\n\
  \  in\n\
  \  let _off = Unix.lseek fd 0 Unix.SEEK_END in\n\
  \  Unix.close fd"

(* the rotate/checkpoint idiom: fsync under Fun.protect close *)
let wal_fd_rotated =
  "let seal dir =\n\
  \  let fd =\n\
  \    Unix.openfile (Filename.concat dir \"wal-1.log\") [ Unix.O_WRONLY ] 0o644\n\
  \  in\n\
  \  Fun.protect ~finally:(fun () -> Unix.close fd)\n\
  \    (fun () -> Unix.fsync fd)"

(* ------------------------------------------------------------------ *)
(* boot_fns: recovery code runs single-threaded (before workers and
   monitor exist), so a write reachable from a serving entry ONLY
   through a declared boot function is not a cross-thread race *)

let boot_replays = "let replay () = Fix_state.read ()"
let srv_boots = "let handle () = Fix_boot.replay ()"

let boot_quad =
  [
    ("Fix_state", "lib/serve/fix_state.ml", race_state);
    ("Fix_boot", "lib/serve/fix_boot.ml", boot_replays);
    ("Fix_mon", "lib/serve/fix_mon.ml", mon_bumps);
    ("Fix_srv", "lib/serve/fix_srv.ml", srv_boots);
  ]

let test_boot_cut () =
  (* undeclared, the recovery chain looks like a serving-side read
     racing the monitor's write *)
  let diags = analyze boot_quad in
  if not (fired "shared-mutable-race" diags) then
    Alcotest.failf "expected the undeclared boot chain to race; got [%s]"
      (show diags);
  (* declared boot-only, the chain is cut and the race disappears *)
  let diags =
    Analysis.analyze_sources
      ~config:{ cfg with Analysis.boot_fns = [ "Fix_boot.replay" ] }
      boot_quad
  in
  if fired "shared-mutable-race" diags then
    Alcotest.failf "boot_fns failed to cut the recovery chain; got [%s]"
      (show diags)

(* a boot function that is itself an entry stays analyzed on its own
   side: cutting must not blind the analyzer to the entry's body *)
let test_boot_fn_entry_still_seeded () =
  let diags =
    Analysis.analyze_sources
      ~config:
        { cfg with
          Analysis.serving_entries = [ "Fix_boot.replay" ];
          handler_entries = [];
          boot_fns = [ "Fix_boot.replay" ] }
      [
        ("Fix_state", "lib/serve/fix_state.ml", race_state);
        ("Fix_boot", "lib/serve/fix_boot.ml", boot_replays);
        ("Fix_mon", "lib/serve/fix_mon.ml", mon_bumps);
      ]
  in
  if not (fired "shared-mutable-race" diags) then
    Alcotest.failf "entry listed in boot_fns lost its own seeding; got [%s]"
      (show diags)

(* ------------------------------------------------------------------ *)
(* The @smoke invariant, as a test: the analyzer reports zero
   errors on the real tree. dune runs this suite from
   _build/default/test, where the built tree sits one level up (cmts
   in lib/<l>/.<l>.objs/, sources copied alongside); a repo-root run
   finds the same tree under _build/default. Anywhere else — e.g. an
   installed-package run — skip. *)

let test_repo_tree_clean () =
  let root =
    if Sys.file_exists "../lib" && Sys.file_exists "../tools" then Some ".."
    else if Sys.file_exists "lib" && Sys.file_exists "_build/default/lib" then Some "."
    else None
  in
  match root with
  | None -> ()
  | Some root ->
    let cwd = Sys.getcwd () in
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir root;
        let cmt_root =
          if Sys.file_exists "_build/default/lib" then "_build/default/lib" else "lib"
        in
        let cmts = Analysis.find_cmts cmt_root in
        if cmts <> [] then begin
          let errs =
            List.filter
              (fun d -> d.Lint.severity = Lint.Error)
              (Analysis.analyze_cmts cmts)
          in
          if errs <> [] then
            Alcotest.failf "repository tree has analyzer errors:\n%s"
              (String.concat "\n" (List.map Lint.render_text errs))
        end)

(* ------------------------------------------------------------------ *)

let corpus =
  [
    (* monitor blocking *)
    ( "monitor-blocking fires on a direct lock",
      check_fires "monitor-blocking"
        [ ("Fix_mon", "lib/serve/fix_mon.ml", mon_locks_directly) ] );
    ( "monitor-blocking silent on lock-free Atomic code",
      check_silent "monitor-blocking"
        [ ("Fix_mon", "lib/serve/fix_mon.ml", mon_lockfree) ] );
    ( "monitor-blocking honors allow-next at the lock site",
      check_silent "monitor-blocking"
        [
          ("Fix_helper", "lib/serve/fix_helper.ml", helper_locks_suppressed);
          ("Fix_mon", "lib/serve/fix_mon.ml", mon_via_helper);
        ] );
    ( "cross-module lock: analyzer fires where the syntactic rule is silent",
      test_cross_module_lock_beats_syntactic );
    ( "serving-side lock in monitor.ml: only the syntactic rule fires",
      check_syntactic_only "no-blocking-in-monitor"
        [
          ("Fix_mon", "lib/serve/monitor.ml", mon_submit_locks);
          ("Fix_srv", "lib/serve/fix_srv.ml", srv_calls_submit);
        ] );
    ( "raw write no handler reaches: only the syntactic rule fires",
      check_syntactic_only "no-unbounded-io"
        [ ("Fix_srv", "lib/serve/fix_srv.ml", srv_unreached_write) ] );
    (* handler blocking *)
    ( "handler-blocking fires through a helper module",
      check_fires "handler-blocking"
        [
          ("Fix_util", "lib/serve/fix_util.ml", util_naps);
          ("Fix_srv", "lib/serve/fix_srv.ml", srv_calls_nap);
        ] );
    ( "handler-blocking exempts the Io wrapper module",
      check_silent "handler-blocking"
        [
          ("Fix_io", "lib/serve/fix_io.ml", io_wrapper);
          ("Fix_srv", "lib/serve/fix_srv.ml", srv_via_io);
        ] );
    ( "handler-blocking honors allow-next at the syscall site",
      check_silent "handler-blocking"
        [
          ("Fix_util", "lib/serve/fix_util.ml", util_naps_suppressed);
          ("Fix_srv", "lib/serve/fix_srv.ml", srv_calls_nap);
        ] );
    (* shared-mutable races *)
    ( "race fires on a mutable field used from both threads",
      check_fires "shared-mutable-race" (race_trio race_state "lib/serve/fix_state.ml")
    );
    ( "race fires on a ref cell used from both threads",
      check_fires "shared-mutable-race" (race_trio ref_state "lib/serve/fix_state.ml") );
    ( "race silent when the cell is an Atomic.t",
      check_silent "shared-mutable-race"
        (race_trio atomic_state "lib/serve/fix_state.ml") );
    ( "race silent when the state lives outside the scoped dirs",
      check_silent "shared-mutable-race"
        (race_trio race_state "lib/timing/fix_state.ml") );
    ( "race honors allow-next at the monitor-side write",
      check_silent "shared-mutable-race"
        (race_trio race_state_suppressed "lib/serve/fix_state.ml") );
    ("race diagnostic names key and both chains", test_race_names_both_sides);
    (* fd leaks *)
    ( "fd-leak fires when no path closes",
      check_fires "fd-leak" [ ("Fix_fd", fd_path, fd_leak_plain) ] );
    ( "fd-leak fires on an unprotected exception edge",
      check_fires "fd-leak" [ ("Fix_fd", fd_path, fd_leak_exn) ] );
    ("fd-leak exception-edge message", test_fd_exception_edge_message);
    ( "fd-leak silent on straight-line close",
      check_silent "fd-leak" [ ("Fix_fd", fd_path, fd_closed) ] );
    ( "fd-leak silent under Fun.protect ~finally",
      check_silent "fd-leak" [ ("Fix_fd", fd_path, fd_protected) ] );
    ( "fd-leak silent on ownership transfer",
      check_silent "fd-leak" [ ("Fix_fd", fd_path, fd_transferred) ] );
    ("fd-leak composes through a same-module wrapper", test_fd_wrapper_composes);
    ( "fd-leak silent when a local wrapper closes",
      check_silent "fd-leak" [ ("Fix_fd", fd_path, fd_closer_wrapper) ] );
    ( "fd-leak honors allow-next at the creation site",
      check_silent "fd-leak" [ ("Fix_fd", fd_path, fd_leak_suppressed) ] );
    ( "fd-leak silent outside the scoped dirs",
      check_silent "fd-leak" [ ("Fix_fd", "lib/timing/fix_fd.ml", fd_leak_plain) ] );
    (* WAL/checkpoint descriptors *)
    ( "fd-leak tracks a WAL segment descriptor",
      check_fires "fd-leak" [ ("Fix_wal", wal_fd_path, wal_fd_leak) ] );
    ( "fd-leak silent on the seal/rotate idiom",
      check_silent "fd-leak" [ ("Fix_wal", wal_fd_path, wal_fd_rotated) ] );
    (* boot-phase cuts *)
    ("boot_fns cuts the recovery chain out of the race", test_boot_cut);
    ( "a boot function listed as an entry is still seeded",
      test_boot_fn_entry_still_seeded );
    (* the acceptance invariant *)
    ("repo tree is analyzer-clean", test_repo_tree_clean);
  ]

let suites =
  [
    ( "analysis",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) corpus );
  ]
