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

(* A helper inside a wrapped dune library, reached the two ways the
   typedtree spells it: from a sibling module through the library's
   alias module ("Fix__.Helper.guarded", the shape of a lib/serve
   helper called from Monitor.step) and from another library through
   its main module ("Fixcore.Helper.guarded", a lib/core helper). Both
   name the summary "Fix.Helper" / "Fixcore.Helper" that the mangled
   module "Fix__Helper" / "Fixcore__Helper" gets, so both must fire. *)
let wrapped_helper ~lib ~dir ~via =
  [
    (lib ^ "__Helper", dir ^ "/helper.ml", helper_locks);
    (via, dir ^ "/" ^ String.lowercase_ascii via ^ ".ml", "module Helper = " ^ lib ^ "__Helper");
    ( "Fix_mon",
      "lib/serve/fix_mon.ml",
      "let state = ref 0\nlet tick () = " ^ via ^ ".Helper.guarded (fun () -> incr state)" );
  ]

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
(* unused-export: a lib .mli's vals against the references of every
   other unit, bin/ and test/ ones included *)

let util_mli =
  "val used : int -> int\nval internal : int -> int\nmodule Inner : sig val deep : int end"

let util_ml =
  "let internal x = x + 1\nlet used x = internal x\nmodule Inner = struct let deep = 3 end"

let util ?(mli = util_mli) () =
  [ ("Fix_util", "lib/core/fix_util.mli", mli); ("Fix_util", "lib/core/fix_util.ml", util_ml) ]

(* one unit in each tree that uses lib; [bin] and [test] carry the
   fixture's references *)
let consumers ?(bin = "") ?(test = "") () =
  [
    ("Fix_main", "bin/fix_main.ml", bin);
    ("Fix_t", "test/fix_t.ml", test);
    ("Fix_bench", "bench/fix_bench.ml", "");
    ("Fix_example", "examples/fix_example.ml", "");
    ("Fix_perf", "perfbench/fix_perf.ml", "");
  ]

let qualified_use = "let () = ignore (Fix_util.used Fix_util.Inner.deep)"

let unused_exports mods =
  List.filter (fun d -> d.Lint.rule = "unused-export") (analyze mods)

let check_exports expected mods () =
  let got = List.map (fun d -> d.Lint.message) (unused_exports mods) in
  let names (name, how) m = contains m ("'" ^ name ^ "'") && contains m how in
  let ok = List.length got = List.length expected && List.for_all2 names expected got in
  if not ok then Alcotest.failf "unused-export: got [%s]" (String.concat "; " got)

(* dune's mangled sibling path: [Fixlib__.Util.v] inside the library *)
let mangled =
  [
    ("Fixlib__Util", "lib/fixlib/util.mli", "val v : int");
    ("Fixlib__Util", "lib/fixlib/util.ml", "let v = 1");
    ("Fixlib__", "lib/fixlib/fixlib__.ml", "module Util = Fixlib__Util");
    ("Fixlib__User", "lib/fixlib/user.ml", "let w = Fixlib__.Util.v");
  ]
  @ consumers ()

(* a missing consumer tree skips the rule (never run on a partial set)
   and says so on stderr *)
let test_export_skipped_without_consumers () =
  let tmp = Filename.temp_file "analysis" ".err" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let found =
    Fun.protect
      ~finally:(fun () ->
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      (fun () -> unused_exports (util () @ List.tl (consumers ())))
  in
  let err = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  if found <> [] || not (contains err "unused-export skipped" && contains err "bin/") then
    Alcotest.failf "expected a skip naming bin/; got [%s], stderr %S" (show found) err

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
    ( "monitor-blocking fires through a sibling module's alias path",
      check_fires "monitor-blocking" (wrapped_helper ~lib:"Fix" ~dir:"lib/serve" ~via:"Fix__") );
    ( "monitor-blocking fires through another library's main module",
      check_fires "monitor-blocking"
        (wrapped_helper ~lib:"Fixcore" ~dir:"lib/core" ~via:"Fixcore") );
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
    (* unused exports *)
    ( "unused-export flags a value used only in its own module",
      check_exports
        [ ("Fix_util.internal", "no other compilation unit") ]
        (util () @ consumers ~bin:qualified_use ()) );
    ( "unused-export flags a value only test/ uses",
      check_exports
        [ ("Fix_util.internal", "only test/") ]
        (util ()
        @ consumers ~bin:qualified_use ~test:"let () = ignore (Fix_util.internal 1)" ()) );
    ( "unused-export silent on uses after open",
      check_exports []
        (util ()
        @ consumers ~bin:"open Fix_util\nlet () = ignore (used (internal Inner.deep))" ()) );
    ("unused-export silent on a dune-mangled sibling path", check_exports [] mangled);
    ( "unused-export honors allow-next in the .mli",
      check_exports []
        (util
           ~mli:
             "val used : int -> int\n\
              (* lint: allow-next unused-export: fixture *)\n\
              val internal : int -> int\n\
              module Inner : sig val deep : int end"
           ()
        @ consumers ~bin:qualified_use ()) );
    ( "unused-export skipped when a consumer tree has no units",
      test_export_skipped_without_consumers );
  ]

let suites =
  [
    ( "analysis",
      List.map (fun (name, f) -> Alcotest.test_case name `Quick f) corpus );
  ]
