(* Whole-program dataflow analysis over the typedtree (.cmt files).

   The second engine of the lint suite. Where {!Lint} checks one file's
   untyped AST in isolation, this module reads the [.cmt] files dune
   produces as compilation side-products, builds a call graph with a
   per-function effect summary for every top-level binding, and runs
   five rule families:

   - [shared-mutable-race]: mutable locations (refs, mutable record
     fields, arrays) owned by the shared modules that are reached both
     from the monitor-thread entry points and from the request-serving
     entry points without going through [Atomic.t].
   - [monitor-blocking]: a blocking primitive ([Mutex.lock],
     [Unix.select], [Thread.join], ...) anywhere in the call graph
     below a monitor entry point, even across modules.
   - [handler-blocking]: a raw blocking syscall reachable from a
     deadline-scoped request handler outside the [Serve.Io] wrappers.
   - [fd-leak]: intraprocedural path-sensitive tracking that every
     [Unix.socket]/[accept]/[openfile] result reaches [close] (or an
     ownership transfer: returned, stored, captured by a closure,
     handed to [Thread.create]/a queue) on all paths, including
     exception edges ([Fun.protect ~finally], [match ... with
     exception], [try]); wrappers compose within a module through
     escape-to-caller summaries (a function that closes its fd
     parameter becomes a closer, one that returns a descriptor it
     opened becomes a creator).
   - [unused-export]: a [val] of a program [.mli] that no other
     compilation unit, consumer trees (bin, test, ...) included,
     refers to, or that only test code does.

   The two blocking rules are counterparts of the syntactic
   [no-blocking-in-monitor] and [no-unbounded-io] rules, not
   replacements: they see only code reachable from the entry points,
   the syntactic rules whole files.

   Known approximations, chosen to stay sound for the rules above:
   closure bodies are summarized into their enclosing top-level
   binding; closures handed to [Thread.create]/[Domain.spawn] are
   severed (the spawned thread is a different side of the race
   analysis, so its effects must not leak into the spawner's summary —
   cover spawned code by listing its entry points in the config);
   calls through stored function values are not tracked. *)

open Typedtree

type config = {
  shared_mutable_dirs : string list;
      (** modules whose mutable state is subject to the race rule *)
  fd_dirs : string list;  (** modules subject to fd-leak tracking *)
  monitor_entries : string list;
  serving_entries : string list;
  handler_entries : string list;
      (** deadline-scoped request handlers ([handler-blocking]) *)
  io_wrapper_modules : string list;
      (** modules allowed to issue raw blocking syscalls *)
  blocking_calls : string list;
  raw_io_calls : string list;
  fd_creators : string list;
  fd_closers : string list;
  fd_transfers : string list;
  thread_spawns : string list;
  boot_fns : string list;
      (** single-threaded-phase functions (boot-time recovery, or the
          epilogue after threads are joined): cut from thread-side
          reachability traversal; being listed as an entry still seeds
          them *)
}

let default_config =
  {
    shared_mutable_dirs = [ "lib/serve/"; "lib/core/" ];
    fd_dirs = [ "lib/serve/"; "lib/chaos/"; "lib/store/" ];
    monitor_entries =
      [
        "Serve.monitor_step";
        "Serve.reselect_from_recent";
        "Serve.Monitor.step";
        "Serve.Monitor.note_error";
        "Serve.Monitor.swapped";
      ];
    serving_entries = [ "Serve.run"; "Serve.worker"; "Serve.serve_conn"; "Serve.handle" ];
    handler_entries = [ "Serve.serve_conn"; "Serve.handle" ];
    (* Serve.Io: deadline-carrying socket wrappers. Store.Wal: the
       journal's fsync'd append/rotate path — local-disk writes behind
       its own mutex, deliberately synchronous in the observe handler
       (journal-before-ack is the durability point). *)
    io_wrapper_modules = [ "Serve.Io"; "Store.Wal" ];
    blocking_calls =
      [
        "Mutex.lock";
        "Condition.wait";
        "Condition.wait_timeout";
        "Thread.join";
        "Thread.delay";
        "Domain.join";
        "Unix.select";
        "Unix.sleep";
        "Unix.sleepf";
      ];
    raw_io_calls =
      [
        "Unix.read";
        "Unix.write";
        "Unix.write_substring";
        "Unix.single_write";
        "Unix.select";
        "Unix.connect";
        "Unix.accept";
        "Unix.sleep";
        "Unix.sleepf";
      ];
    fd_creators = [ "Unix.socket"; "Unix.accept"; "Unix.openfile" ];
    fd_closers = [ "Unix.close" ];
    fd_transfers =
      [ "Thread.create"; "Queue.add"; "Queue.push"; "Hashtbl.add"; "Hashtbl.replace" ];
    thread_spawns = [ "Thread.create"; "Domain.spawn" ];
    (* Recovery (decode/split/replay/swapped under Serve.create) runs
       strictly before the listener, workers or monitor thread exist;
       the final forced checkpoint (Serve.maybe_checkpoint in Serve.run's
       epilogue) runs after the monitor thread is joined. Writes into
       monitor state from these single-threaded phases cannot race
       anything; listing them keeps the race rule from seeing a
       serving-side path into the monitor internals. Entry seeding is
       unaffected: a cut function listed as a monitor entry is still
       analyzed as monitor code. *)
    boot_fns =
      [
        "Serve.Monitor.replay";
        "Serve.Monitor.decode";
        "Serve.Monitor.split";
        "Serve.Monitor.swapped";
        "Serve.Monitor.applied_seq";
        "Serve.maybe_checkpoint";
      ];
  }

(* The trees outside lib that use it. Their units are not analyzed as
   program code; their references count as uses for [unused-export],
   which runs only when each of them has compiled units. References
   from [test_dir] alone keep no export. *)
let consumer_dirs = [ "bin/"; "bench/"; "test/"; "examples/"; "perfbench/" ]
let test_dir = "test/"

let rules =
  [
    ( "shared-mutable-race",
      Lint.Error,
      "mutable state reached from both monitor and serving threads without Atomic.t" );
    ( "monitor-blocking",
      Lint.Error,
      "blocking primitive reachable from a monitor-thread entry point" );
    ( "handler-blocking",
      Lint.Error,
      "raw blocking syscall reachable from a deadline-scoped handler outside the Io wrappers" );
    ( "fd-leak",
      Lint.Error,
      "file descriptor not closed or ownership-transferred on every path (incl. exceptions)" );
    ( "unused-export",
      Lint.Error,
      "val in a lib .mli that no other compilation unit (or only test/) refers to" );
  ]

(* ------------------------------------------------------------------ *)
(* Effect summaries *)

type site = { s_file : string; s_line : int; s_col : int }
type access = Read | Write

type fn_summary = {
  fn : string;  (** fully qualified, e.g. "Serve.Monitor.step" *)
  calls : (string * site) list;
  blocking : (string * site) list;
  raw_io : (string * site) list;
  mut_uses : (string * access * site) list;
      (** (location key, kind, site); keys look like "Serve.t.mon",
          "Serve.counters.reloads", "Serve.Monitor.t.ring[]" *)
  fd_leaks : (string * site) list;  (** (message, site) *)
}

type module_summary = { m_name : string; m_file : string; m_fns : fn_summary list }

let site_of ~file (loc : Location.t) =
  {
    s_file = file;
    s_line = loc.loc_start.pos_lnum;
    s_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
  }

(* ------------------------------------------------------------------ *)
(* Name normalization.

   cmt module names use dune's mangling ("Serve__Monitor"); paths
   inside a library refer to siblings without the library prefix
   ("Monitor.step" inside serve.cmt) or through its alias module
   ("Serve__.Helper.f" inside serve__Monitor.cmt, where "__." must
   become one dot, not two); stdlib values carry a "Stdlib."
   prefix ("Stdlib.Mutex.lock"); same-module top-level bindings appear
   as bare idents. Everything is normalized to the dotted form used in
   the config lists ("Serve.Monitor.step", "Mutex.lock"). *)

let replace_dunder s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := if !i + 2 < n && s.[!i + 2] = '.' then !i + 3 else !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let strip_stdlib s =
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

type walk_ctx = {
  cfg : config;
  known : string list;  (** normalized module names in this run *)
  cur_mod : string;  (** e.g. "Serve.Monitor" *)
  lib : string;  (** library prefix, e.g. "Serve" *)
  file : string;  (** source path, e.g. "lib/serve/monitor.ml" *)
  toplevel : (Ident.t * string) list ref;
      (** idents of top-level bindings -> qualified names *)
}

let qualify ctx n =
  match String.index_opt n '.' with
  | None -> n
  | Some i ->
    let head = String.sub n 0 i in
    if (not (List.mem head ctx.known)) && List.mem (ctx.lib ^ "." ^ head) ctx.known
    then ctx.lib ^ "." ^ n
    else n

(* Resolve a value path to its normalized dotted name; [None] for
   locals (parameters, let-bound values inside a function). *)
let resolve ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match List.find_opt (fun (i, _) -> Ident.same i id) !(ctx.toplevel) with
    | Some (_, q) -> Some q
    | None -> None)
  | _ -> Some (qualify ctx (strip_stdlib (replace_dunder (Path.name p))))

(* The key naming a record type, qualified with the defining module. *)
let type_key ctx (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    let n = strip_stdlib (replace_dunder (Path.name p)) in
    if String.contains n '.' then qualify ctx n else ctx.cur_mod ^ "." ^ n
  | _ -> ctx.cur_mod ^ ".?"

let is_fd_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.name p = "Unix.file_descr"
  | _ -> false

let callee_name ctx (f : expression) =
  match f.exp_desc with Texp_ident (p, _, _) -> resolve ctx p | _ -> None

(* ------------------------------------------------------------------ *)
(* Effect collection (calls, blocking, raw io, mutable uses) *)

type effects = {
  mutable e_calls : (string * site) list;
  mutable e_blocking : (string * site) list;
  mutable e_raw_io : (string * site) list;
  mutable e_mut : (string * access * site) list;
}

let mutable_base_key ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match p with
    | Path.Pident _ -> resolve ctx p (* top-level binding or nothing *)
    | _ -> resolve ctx p)
  | Texp_field (_, _, ld) -> Some (type_key ctx ld.Types.lbl_res ^ "." ^ ld.Types.lbl_name)
  | _ -> None

let first_args (args : (Asttypes.arg_label * expression option) list) =
  List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args

let collect_effects ctx body =
  let eff = { e_calls = []; e_blocking = []; e_raw_io = []; e_mut = [] } in
  let add_mut key acc loc = eff.e_mut <- (key, acc, site_of ~file:ctx.file loc) :: eff.e_mut in
  let on_ident p (loc : Location.t) =
    match resolve ctx p with
    | None -> ()
    | Some q ->
      let s = site_of ~file:ctx.file loc in
      if List.mem q ctx.cfg.blocking_calls then eff.e_blocking <- (q, s) :: eff.e_blocking;
      if List.mem q ctx.cfg.raw_io_calls then eff.e_raw_io <- (q, s) :: eff.e_raw_io;
      eff.e_calls <- (q, s) :: eff.e_calls
  in
  let on_apply f args (loc : Location.t) =
    match callee_name ctx f with
    | None -> ()
    | Some op ->
      let arg_key n =
        match List.nth_opt (first_args args) n with
        | Some a -> mutable_base_key ctx a
        | None -> None
      in
      let record n acc suffix =
        match arg_key n with Some k -> add_mut (k ^ suffix) acc loc | None -> ()
      in
      (match op with
       | "!" -> record 0 Read ""
       | ":=" | "incr" | "decr" -> record 0 Write ""
       | "Array.get" | "Array.unsafe_get" | "Array.length" -> record 0 Read "[]"
       | "Array.set" | "Array.unsafe_set" | "Array.fill" -> record 0 Write "[]"
       | "Bytes.get" -> record 0 Read "[]"
       | "Bytes.set" | "Bytes.unsafe_set" -> record 0 Write "[]"
       | _ -> ())
  in
  let is_spawn f =
    match callee_name ctx f with
    | Some c -> List.mem c ctx.cfg.thread_spawns
    | None -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_apply (f, args) when is_spawn f ->
            (* thread boundary: the spawned closure runs on another
               thread, so its effects belong to that thread's entry
               points, not to the spawner *)
            sub.expr sub f;
            List.iter
              (function
                | _, Some { exp_desc = Texp_function _; _ } -> ()
                | _, Some ({ exp_desc = Texp_ident _; _ } as a) ->
                  (* a named top-level function passed as the thread
                     body: skip the call edge too *)
                  ignore a
                | _, Some a -> sub.expr sub a
                | _, None -> ())
              args
          | _ ->
            (match e.exp_desc with
             | Texp_ident (p, _, _) -> on_ident p e.exp_loc
             | Texp_apply (f, args) -> on_apply f args e.exp_loc
             | Texp_field (r, _, ld) ->
               if ld.Types.lbl_mut = Asttypes.Mutable then
                 add_mut
                   (type_key ctx ld.Types.lbl_res ^ "." ^ ld.Types.lbl_name)
                   Read e.exp_loc;
               ignore r
             | Texp_setfield (_, _, ld, _) ->
               add_mut
                 (type_key ctx ld.Types.lbl_res ^ "." ^ ld.Types.lbl_name)
                 Write e.exp_loc
             | _ -> ());
            Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it body;
  eff

(* ------------------------------------------------------------------ *)
(* fd-leak analysis: intraprocedural and path-sensitive.

   For a descriptor bound at a creation site we walk its continuation;
   the result says whether every normal path resolves the descriptor
   (closes it or transfers ownership), whether resolution happens by
   escape, and which calls may raise before it is resolved outside any
   close-on-exception protection. *)

type fd_sets = { creators : string list; closers : string list }

type fd_res = {
  r : bool;  (** resolved on all normal paths *)
  esc : bool;  (** some resolution was an ownership transfer *)
  raise_sites : (string * site) list;
      (** unprotected may-raise calls while unresolved *)
}

let fd_zero = { r = false; esc = false; raise_sites = [] }

let contains_id id e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
           | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> found := true
           | _ -> ());
          if not !found then Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

let is_bare_id id (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident i, _, _) -> Ident.same i id
  | _ -> false

let split_comp_cases cases =
  List.fold_right
    (fun c (vals, exns) ->
      match c.c_lhs.pat_desc with
      | Tpat_exception _ -> (vals, c :: exns)
      | _ -> (c :: vals, exns))
    cases ([], [])

let may_raise_name closers c =
  (String.length c > 5 && String.sub c 0 5 = "Unix." && not (List.mem c closers))
  || List.mem c [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* [local_closes] maps qualified local function names that close their
   fd argument; [local_uses] those known not to consume it. *)
let rec fd_check ctx sets local_closes id (e : expression) : fd_res =
  let chk e = fd_check ctx sets local_closes id e in
  let seq es =
    List.fold_left
      (fun acc e ->
        if acc.r then acc
        else
          let r = chk e in
          { r = r.r; esc = acc.esc || r.esc; raise_sites = acc.raise_sites @ r.raise_sites })
      fd_zero es
  in
  let escape = { r = true; esc = true; raise_sites = [] } in
  let closed = { r = true; esc = false; raise_sites = [] } in
  match e.exp_desc with
  | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> escape
  | Texp_apply (f, args) -> (
    let cal = callee_name ctx f in
    let pos = first_args args in
    let all_args = List.filter_map (fun (_, a) -> a) args in
    let bare = List.exists (is_bare_id id) all_args in
    let deep =
      List.exists (fun a -> (not (is_bare_id id a)) && contains_id id a) all_args
      || contains_id id f
    in
    match cal with
    | Some "Fun.protect" -> (
      let finally =
        List.find_map
          (function Asttypes.Labelled "finally", Some a -> Some a | _ -> None)
          args
      in
      let fin_closes =
        match finally with
        | Some { exp_desc = Texp_function { cases = [ c ]; _ }; _ } -> (chk c.c_rhs).r
        | Some fin -> (chk fin).r
        | None -> false
      in
      if fin_closes then closed
      else
        match pos with
        | [ body ] when contains_id id body -> escape
        | _ -> if deep || bare then escape else fd_zero)
    | Some c when bare && List.mem c sets.closers -> closed
    | Some c when bare && List.mem_assoc c local_closes ->
      if List.assoc c local_closes then closed else fd_zero
    | Some c when bare && List.mem c ctx.cfg.fd_transfers -> escape
    | Some c when bare && String.length c > 5 && String.sub c 0 5 = "Unix." ->
      (* a syscall that borrows the descriptor without consuming it *)
      if may_raise_name sets.closers c then
        { fd_zero with raise_sites = [ (c, site_of ~file:ctx.file e.exp_loc) ] }
      else fd_zero
    | Some _ when deep -> escape
    | Some _ when bare -> escape (* unknown callee takes ownership *)
    | Some c when may_raise_name sets.closers c ->
      { fd_zero with raise_sites = [ (c, site_of ~file:ctx.file e.exp_loc) ] }
    | _ -> if deep then escape else fd_zero)
  | Texp_let (_, vbs, body) -> seq (List.map (fun vb -> vb.vb_expr) vbs @ [ body ])
  | Texp_sequence (a, b) -> seq [ a; b ]
  | Texp_ifthenelse (c, t, eo) ->
    let rc = chk c in
    if rc.r then rc
    else
      let rt = chk t in
      let re = match eo with Some e -> chk e | None -> fd_zero in
      {
        r = rt.r && (match eo with Some _ -> re.r | None -> false);
        esc = rc.esc || rt.esc || re.esc;
        raise_sites = rc.raise_sites @ rt.raise_sites @ re.raise_sites;
      }
  | Texp_match (scrut, cases, _) ->
    let rs = chk scrut in
    let vals, exns = split_comp_cases cases in
    let exn_rs = List.map (fun c -> chk c.c_rhs) exns in
    (* a handler protects the scrutinee's raise sites if it closes the
       descriptor before (re-)raising, or swallows the exception and
       returns normally (control then continues past the match, where
       the descriptor is still live and tracked) *)
    let handles h = h.r || h.raise_sites = [] in
    let protected = exns <> [] && List.for_all handles exn_rs in
    let scrut_sites = if protected then [] else rs.raise_sites in
    if rs.r then { rs with raise_sites = scrut_sites }
    else
      let val_rs = List.map (fun c -> chk c.c_rhs) vals in
      {
        r =
          vals <> []
          && List.for_all (fun r -> r.r) val_rs
          && List.for_all (fun r -> r.r) exn_rs;
        esc = rs.esc || List.exists (fun r -> r.esc) (val_rs @ exn_rs);
        raise_sites =
          scrut_sites @ List.concat_map (fun r -> r.raise_sites) (val_rs @ exn_rs);
      }
  | Texp_try (b, cases) ->
    let rb = chk b in
    let hs = List.map (fun c -> chk c.c_rhs) cases in
    let protected =
      cases <> [] && List.for_all (fun h -> h.r || h.raise_sites = []) hs
    in
    {
      r = rb.r;
      esc = rb.esc || List.exists (fun h -> h.esc) hs;
      raise_sites = if protected then [] else rb.raise_sites;
    }
  | Texp_while (c, b) ->
    let rc = chk c and rb = chk b in
    { r = false; esc = rc.esc || rb.esc; raise_sites = rc.raise_sites @ rb.raise_sites }
  | Texp_for (_, _, lo, hi, _, b) ->
    let rs = List.map chk [ lo; hi; b ] in
    {
      r = false;
      esc = List.exists (fun r -> r.esc) rs;
      raise_sites = List.concat_map (fun r -> r.raise_sites) rs;
    }
  | Texp_function _ -> if contains_id id e then escape else fd_zero
  | Texp_assert (a, _) -> chk a
  | _ -> if contains_id id e then escape else fd_zero

(* Find descriptor creation sites in a binding body and check each
   continuation. *)
let fd_scan ctx sets local_closes ~fn body =
  let leaks = ref [] in
  let creates = ref false in
  let creator_of (e : expression) =
    match e.exp_desc with
    | Texp_apply (f, _) -> (
      match callee_name ctx f with
      | Some c when List.mem c sets.creators -> Some c
      | _ -> None)
    | _ -> None
  in
  let fd_idents pat =
    List.filter_map
      (fun (id, _, ty) -> if is_fd_type ty then Some id else None)
      (pat_bound_idents_full pat)
  in
  let report creator id cont (loc : Location.t) =
    let res = fd_check ctx sets local_closes id cont in
    if res.esc then creates := true;
    if not res.r then
      leaks :=
        ( Printf.sprintf
            "descriptor from %s bound in %s is not closed (or ownership-transferred) on \
             every path"
            creator fn,
          site_of ~file:ctx.file loc )
        :: !leaks
    else
      match res.raise_sites with
      | (c, s) :: _ ->
        leaks :=
          ( Printf.sprintf
              "descriptor from %s bound in %s leaks if %s raises: no close-on-exception \
               protection (Fun.protect ~finally / match-exception) covers the call"
              creator fn c,
            s )
          :: !leaks
      | [] -> ()
  in
  let rec find (e : expression) =
    match e.exp_desc with
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          match creator_of vb.vb_expr with
          | Some c ->
            List.iter (fun id -> report c id body vb.vb_pat.pat_loc) (fd_idents vb.vb_pat)
          | None -> find vb.vb_expr)
        vbs;
      find body
    | Texp_match (scrut, cases, _) when creator_of scrut <> None ->
      let c = match creator_of scrut with Some c -> c | None -> assert false in
      List.iter
        (fun case ->
          List.iter
            (fun id -> report c id case.c_rhs case.c_lhs.pat_loc)
            (fd_idents case.c_lhs);
          find case.c_rhs)
        cases
    | _ ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _sub e -> find e);
        }
      in
      Tast_iterator.default_iterator.expr it e
  in
  find body;
  (List.rev !leaks, !creates)

(* Does the binding close its (first) fd-typed parameter on all paths? *)
let closes_param ctx sets local_closes body =
  let rec peel pats (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
      peel (c_lhs :: pats) c_rhs
    | _ -> (List.rev pats, e)
  in
  let pats, inner = peel [] body in
  let fd_params =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun (id, _, ty) -> if is_fd_type ty then Some id else None)
          (pat_bound_idents_full p))
      pats
  in
  match fd_params with
  | id :: _ ->
    let res = fd_check ctx sets local_closes id inner in
    res.r && not res.esc
  | [] -> false

(* ------------------------------------------------------------------ *)
(* Per-module summary construction *)

type raw_binding = { b_fn : string; b_expr : expression }

let collect_bindings ctx (str : structure) =
  let bindings = ref [] in
  let rec items prefix its =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let ids = pat_bound_idents vb.vb_pat in
              List.iter
                (fun id ->
                  ctx.toplevel := (id, prefix ^ "." ^ Ident.name id) :: !(ctx.toplevel))
                ids;
              match ids with
              | id :: _ ->
                bindings :=
                  { b_fn = prefix ^ "." ^ Ident.name id; b_expr = vb.vb_expr }
                  :: !bindings
              | [] -> ())
            vbs
        | Tstr_module mb -> descend_mb prefix mb
        | Tstr_recmodule mbs -> List.iter (descend_mb prefix) mbs
        | _ -> ())
      its
  and descend_mb prefix mb =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec strip_me me =
      match me.mod_desc with
      | Tmod_structure s -> Some s
      | Tmod_constraint (me, _, _, _) -> strip_me me
      | _ -> None
    in
    match strip_me mb.mb_expr with
    | Some s -> items (prefix ^ "." ^ name) s.str_items
    | None -> ()
  in
  items ctx.cur_mod str.str_items;
  List.rev !bindings

let make_ctx ~cfg ~known ~modname ~file =
  let lib =
    match String.index_opt modname '.' with
    | Some i -> String.sub modname 0 i
    | None -> modname
  in
  { cfg; known; cur_mod = modname; lib; file; toplevel = ref [] }

let build_module_summary ~cfg ~known ~modname ~file (str : structure) =
  let ctx = make_ctx ~cfg ~known ~modname ~file in
  let bindings = collect_bindings ctx str in
  let effects = List.map (fun b -> (b, collect_effects ctx b.b_expr)) bindings in
  let track_fds = Lint.in_any file cfg.fd_dirs in
  let base = { creators = cfg.fd_creators; closers = cfg.fd_closers } in
  let fd_round sets local_closes =
    List.map
      (fun b ->
        if track_fds then
          let leaks, creates = fd_scan ctx sets local_closes ~fn:b.b_fn b.b_expr in
          (b.b_fn, (leaks, creates, closes_param ctx sets local_closes b.b_expr))
        else (b.b_fn, ([], false, false)))
      bindings
  in
  (* two rounds: the first derives per-module creators/closers, the
     second re-checks every binding against the derived sets so
     same-module wrappers compose *)
  let r1 = fd_round base [] in
  let derived =
    {
      creators =
        base.creators @ List.filter_map (fun (f, (_, c, _)) -> if c then Some f else None) r1;
      closers =
        base.closers @ List.filter_map (fun (f, (_, _, c)) -> if c then Some f else None) r1;
    }
  in
  let local_closes = List.map (fun (f, (_, _, c)) -> (f, c)) r1 in
  let r2 = fd_round derived local_closes in
  let fns =
    List.map
      (fun (b, eff) ->
        {
          fn = b.b_fn;
          calls = List.sort_uniq compare eff.e_calls;
          blocking = List.sort_uniq compare eff.e_blocking;
          raw_io = List.sort_uniq compare eff.e_raw_io;
          mut_uses = List.sort_uniq compare eff.e_mut;
          fd_leaks =
            (match List.assoc_opt b.b_fn r2 with Some (leaks, _, _) -> leaks | None -> []);
        })
      effects
  in
  { m_name = modname; m_file = file; m_fns = fns }

(* ------------------------------------------------------------------ *)
(* Call-graph reachability *)

let build_index summaries =
  let idx = Hashtbl.create 256 in
  List.iter (fun m -> List.iter (fun f -> Hashtbl.replace idx f.fn f) m.m_fns) summaries;
  idx

(* BFS with parent links so diagnostics can print the call chain. *)
let reachable ?(cut = []) idx entries =
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun e ->
      if Hashtbl.mem idx e && not (Hashtbl.mem parent e) then begin
        Hashtbl.replace parent e None;
        Queue.add e q
      end)
    entries;
  while not (Queue.is_empty q) do
    let f = Queue.pop q in
    let s = Hashtbl.find idx f in
    List.iter
      (fun (c, _) ->
        if
          Hashtbl.mem idx c
          && (not (Hashtbl.mem parent c))
          && not (List.mem c cut)
        then begin
          Hashtbl.replace parent c (Some f);
          Queue.add c q
        end)
      s.calls
  done;
  parent

let chain parent fn =
  let rec up acc f =
    match Hashtbl.find_opt parent f with
    | Some (Some p) -> up (f :: acc) p
    | Some None -> f :: acc
    | None -> f :: acc
  in
  String.concat " -> " (up [] fn)

(* ------------------------------------------------------------------ *)
(* Rules *)

let diag rule (s : site) message =
  {
    Lint.rule;
    severity = Lint.Error;
    file = s.s_file;
    line = s.s_line;
    col = s.s_col;
    message;
  }

let owner_file ~summaries key =
  (* longest known-module prefix of a location key names its owner *)
  let best = ref None in
  List.iter
    (fun m ->
      let p = m.m_name ^ "." in
      let pl = String.length p in
      if String.length key > pl && String.sub key 0 pl = p then
        match !best with
        | Some (l, _) when l >= pl -> ()
        | _ -> best := Some (pl, m.m_file))
    summaries;
  Option.map snd !best

let access_str = function Read -> "read" | Write -> "written"

let race_rule cfg summaries idx =
  let mon = reachable ~cut:cfg.boot_fns idx cfg.monitor_entries in
  let srv = reachable ~cut:cfg.boot_fns idx cfg.serving_entries in
  (* key -> (side, fn, access, site) uses *)
  let uses = Hashtbl.create 64 in
  Hashtbl.iter
    (fun fn (s : fn_summary) ->
      let m = Hashtbl.mem mon fn and v = Hashtbl.mem srv fn in
      if m || v then
        List.iter
          (fun (key, acc, site) ->
            let prev = try Hashtbl.find uses key with Not_found -> [] in
            let add side l = (side, fn, acc, site) :: l in
            let l = if m then add `Mon prev else prev in
            let l = if v then add `Srv l else l in
            Hashtbl.replace uses key l)
          s.mut_uses)
    idx;
  let site_order (_, _, _, a) (_, _, _, b) = compare (a.s_file, a.s_line, a.s_col) (b.s_file, b.s_line, b.s_col) in
  Hashtbl.fold
    (fun key l acc ->
      match owner_file ~summaries key with
      | Some f when Lint.in_any f cfg.shared_mutable_dirs ->
        let mons = List.sort site_order (List.filter (fun (s, _, _, _) -> s = `Mon) l) in
        let srvs = List.sort site_order (List.filter (fun (s, _, _, _) -> s = `Srv) l) in
        let has_write side =
          List.exists (fun (_, _, a, _) -> a = Write) (if side = `Mon then mons else srvs)
        in
        if mons <> [] && srvs <> [] && (has_write `Mon || has_write `Srv) then begin
          let pick side l =
            match List.find_opt (fun (_, _, a, _) -> a = Write) l with
            | Some u when has_write side -> u
            | _ -> List.hd l
          in
          let _, mfn, macc, msite = pick `Mon mons in
          let _, sfn, sacc, ssite = pick `Srv srvs in
          diag "shared-mutable-race" msite
            (Printf.sprintf
               "mutable location '%s' is %s on the monitor side (%s) and %s on the \
                serving side (%s at %s:%d) without going through Atomic.t"
               key (access_str macc) (chain mon mfn) (access_str sacc) (chain srv sfn)
               ssite.s_file ssite.s_line)
          :: acc
        end
        else acc
      | _ -> acc)
    uses []

let monitor_blocking_rule cfg idx =
  let mon = reachable ~cut:cfg.boot_fns idx cfg.monitor_entries in
  Hashtbl.fold
    (fun fn (s : fn_summary) acc ->
      if Hashtbl.mem mon fn then
        List.fold_left
          (fun acc (b, site) ->
            diag "monitor-blocking" site
              (Printf.sprintf
                 "blocking call '%s' is reachable from a monitor entry point (%s); the \
                  monitor/reselect thread must stay lock- and wait-free"
                 b (chain mon fn))
            :: acc)
          acc s.blocking
      else acc)
    idx []

let handler_blocking_rule cfg idx =
  let h = reachable ~cut:cfg.boot_fns idx cfg.handler_entries in
  let in_wrapper fn =
    List.exists
      (fun m ->
        let p = m ^ "." in
        String.length fn > String.length p && String.sub fn 0 (String.length p) = p)
      cfg.io_wrapper_modules
  in
  Hashtbl.fold
    (fun fn (s : fn_summary) acc ->
      if Hashtbl.mem h fn && not (in_wrapper fn) then
        List.fold_left
          (fun acc (c, site) ->
            diag "handler-blocking" site
              (Printf.sprintf
                 "raw blocking syscall '%s' is reachable from a deadline-scoped handler \
                  (%s); route it through the Io timeout wrappers"
                 c (chain h fn))
            :: acc)
          acc s.raw_io
      else acc)
    idx []

let fd_leak_rule summaries =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun (f : fn_summary) ->
          List.map (fun (msg, site) -> diag "fd-leak" site msg) f.fd_leaks)
        m.m_fns)
    summaries

(* ------------------------------------------------------------------ *)
(* unused-export: every [val] a program .mli declares needs a user in
   another compilation unit. A use inside the defining unit means the
   value should leave the .mli; a use from test code alone means it
   should go together with its tests, unless a test checks other code
   through it (then an allow-next in the .mli says so). *)

type export = { x_name : string; x_unit : string; x_site : site }

let rec sig_exports ~file ~unit prefix (items : signature_item list) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        [
          {
            x_name = prefix ^ "." ^ vd.val_name.txt;
            x_unit = unit;
            x_site = site_of ~file vd.val_loc;
          };
        ]
      | Tsig_module md -> submodule_exports ~file ~unit prefix md
      | Tsig_recmodule mds -> List.concat_map (submodule_exports ~file ~unit prefix) mds
      | _ -> [])
    items

(* aliases and [module type of] re-export another unit's values, which
   that unit's own interface already lists *)
and submodule_exports ~file ~unit prefix md =
  match (md.md_name.txt, md.md_type.mty_desc) with
  | Some n, Tmty_signature sg -> sig_exports ~file ~unit (prefix ^ "." ^ n) sg.sig_items
  | _ -> []

(* The values a unit refers to and the modules it uses whole (a functor
   argument, an include, a packed module, a [let module]), by
   normalized name. A use through a top-level alias ([module W =
   Store.Codec.W]) is charged to the alias's target; a plain [open]
   uses nothing by itself. *)
let unit_uses ctx str =
  let aliases = ref [] in
  let name_of p =
    let head = Path.head p in
    match List.find_opt (fun (i, _) -> Ident.same i head) !aliases with
    | Some (_, target) ->
      let n = Path.name p and h = String.length (Ident.name head) in
      Some (target ^ String.sub n h (String.length n - h))
    | None -> ( match p with Path.Pident _ -> None | _ -> resolve ctx p)
  in
  let vals = ref [] and mods = ref [] in
  let rec strip me =
    match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip me | _ -> me
  in
  let alias id me =
    match (strip me).mod_desc with
    | Tmod_ident (p, _) -> (
      match name_of p with
      | Some n ->
        aliases := (id, n) :: !aliases;
        true
      | None -> false)
    | _ -> false
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter (fun n -> vals := n :: !vals) (name_of p)
          | _ -> default.expr sub e);
      module_binding =
        (fun sub mb ->
          match mb.mb_id with
          | Some id when alias id mb.mb_expr -> ()
          | _ -> default.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default.open_declaration sub od);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
           | Tmod_ident (p, _) -> Option.iter (fun n -> mods := n :: !mods) (name_of p)
           | _ -> ());
          default.module_expr sub me);
    }
  in
  it.structure it str;
  (List.sort_uniq compare !vals, List.sort_uniq compare !mods)

(* [uses]: (unit, source file, values, whole modules) per unit *)
let unused_export_rule exports uses =
  let users = Hashtbl.create 4096 and whole = ref [] in
  List.iter
    (fun (unit, file, vals, mods) ->
      let u = (unit, Lint.path_under file test_dir) in
      List.iter (fun v -> Hashtbl.add users v u) vals;
      List.iter (fun m -> whole := (m ^ ".", u) :: !whole) mods)
    uses;
  List.filter_map
    (fun x ->
      let by_module =
        List.filter_map
          (fun (m, u) -> if String.starts_with ~prefix:m x.x_name then Some u else None)
          !whole
      in
      let others =
        List.filter
          (fun (unit, _) -> unit <> x.x_unit)
          (Hashtbl.find_all users x.x_name @ by_module)
      in
      if List.exists (fun (_, in_test) -> not in_test) others then None
      else
        Some
          (diag "unused-export" x.x_site
             (if others = [] then
                Printf.sprintf
                  "'%s' is exported but no other compilation unit refers to it: drop it \
                   from the .mli, or delete it"
                  x.x_name
              else
                Printf.sprintf
                  "only %s refers to '%s': delete it with its tests, or keep it under an \
                   allow-next that says what the test checks through it"
                  test_dir x.x_name)))
    exports

(* ------------------------------------------------------------------ *)
(* The program: lib's compilation units, plus the consumer units whose
   references feed [unused-export]. *)

type unit_src = {
  u_name : string;  (** normalized, e.g. "Serve.Monitor" *)
  u_file : string;  (** the implementation's source path *)
  u_impl : structure;
  u_intf : (string * signature) option Lazy.t option;
  (** [None] without an interface; else the .mli's path and signature,
      read only when [unused-export] runs *)
}

let run_rules ~cfg ~sources units =
  let program = List.filter (fun u -> not (Lint.in_any u.u_file consumer_dirs)) units in
  let known = List.map (fun u -> u.u_name) program in
  let summaries =
    List.map
      (fun u -> build_module_summary ~cfg ~known ~modname:u.u_name ~file:u.u_file u.u_impl)
      program
  in
  let idx = build_index summaries in
  let missing =
    List.filter
      (fun d -> not (List.exists (fun u -> Lint.path_under u.u_file d) units))
      consumer_dirs
  in
  let unused_exports =
    if not (List.exists (fun u -> u.u_intf <> None) program) then []
    else if missing <> [] then begin
      Printf.eprintf
        "unused-export skipped: no compiled units under %s (their .cmt files come from \
         dune build @check)\n%!"
        (String.concat ", " missing);
      []
    end
    else
      let exports =
        List.concat_map
          (fun u ->
            match Option.map Lazy.force u.u_intf with
            | Some (Some (file, sg)) -> sig_exports ~file ~unit:u.u_name u.u_name sg.sig_items
            | Some None | None -> [])
          program
      in
      unused_export_rule exports
        (List.map
           (fun u ->
             let ctx = make_ctx ~cfg ~known ~modname:u.u_name ~file:u.u_file in
             let vals, mods = unit_uses ctx u.u_impl in
             (u.u_name, u.u_file, vals, mods))
           units)
  in
  let diags =
    race_rule cfg summaries idx
    @ monitor_blocking_rule cfg idx
    @ handler_blocking_rule cfg idx
    @ fd_leak_rule summaries
    @ unused_exports
  in
  (* suppression comments come from the source files the cmts point at *)
  let sup_cache = Hashtbl.create 8 in
  let sup_for file =
    match Hashtbl.find_opt sup_cache file with
    | Some s -> s
    | None ->
      let s =
        match List.assoc_opt file sources with
        | Some src -> Lint.suppressions_of_source src
        | None -> (
          try
            if Sys.file_exists file then Lint.suppressions_of_source (Lint.read_file file)
            else Lint.no_suppressions
          with _ -> Lint.no_suppressions)
      in
      Hashtbl.replace sup_cache file s;
      s
  in
  let kept =
    List.filter
      (fun (d : Lint.diagnostic) -> Lint.filter_suppressed (sup_for d.file) [ d ] <> [])
      diags
  in
  List.sort_uniq
    (fun (a : Lint.diagnostic) (b : Lint.diagnostic) ->
      compare (a.file, a.line, a.col, a.rule, a.message) (b.file, b.line, b.col, b.rule, b.message))
    kept

(* ------------------------------------------------------------------ *)
(* Entry points *)

let find_cmts root =
  let acc = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception _ -> ()
    | xs ->
      Array.iter
        (fun x ->
          let p = Filename.concat d x in
          match Sys.is_directory p with
          | exception _ -> ()
          | true -> walk p
          | false ->
            if Filename.check_suffix x ".cmt" && not (String.ends_with ~suffix:"__.cmt" x)
            then acc := p :: !acc)
        xs
  in
  (try if Sys.is_directory root then walk root with _ -> ());
  List.sort compare !acc

let find_tree_cmts root =
  List.concat_map (fun d -> find_cmts (Filename.concat root d)) ("lib" :: consumer_dirs)

let read_unit p =
  match Cmt_format.read_cmt p with
  | { cmt_annots = Implementation str; cmt_modname; cmt_sourcefile; _ } ->
    let name = replace_dunder cmt_modname in
    let file = match cmt_sourcefile with Some f -> Lint.normalize f | None -> name in
    let intf =
      if Lint.in_any file consumer_dirs || not (Sys.file_exists (p ^ "i")) then None
      else
        Some
          (lazy
            (match Cmt_format.read_cmt (p ^ "i") with
             | { cmt_annots = Interface sg; cmt_sourcefile = Some f; _ } ->
               Some (Lint.normalize f, sg)
             | _ -> None))
    in
    Some { u_name = name; u_file = file; u_impl = str; u_intf = intf }
  | _ -> None
  | exception _ -> None

let analyze_cmts ?(config = default_config) cmt_paths =
  run_rules ~cfg:config ~sources:[] (List.filter_map read_unit cmt_paths)

(* ------------------------------------------------------------------ *)
(* In-process typechecking, for fixture tests: analyze source snippets
   without shelling out to the compiler. Snippets are typed in order;
   each one can refer to the modules of the previous ones. A snippet
   whose path ends in ".mli" is the interface of the implementation
   snippet of the same module name: its vals are the unit's exports. *)

let typecheck_sources srcs =
  Compmisc.init_path ();
  List.iter
    (fun sub ->
      try Load_path.add_dir (Filename.concat Config.standard_library sub) with _ -> ())
    [ "unix"; "threads" ];
  ignore (Warnings.parse_options false "-a");
  let env = ref (Compmisc.initial_env ()) in
  List.map
    (fun (modname, path, src) ->
      let lb = Lexing.from_string src in
      Lexing.set_filename lb path;
      try
        let sg, typed =
          if Filename.check_suffix path ".mli" then
            let tsig = Typemod.transl_signature !env (Parse.interface lb) in
            (tsig.sig_type, `Intf tsig)
          else
            let tstr, sg, _names, _shape, _env =
              Typemod.type_structure !env (Parse.implementation lb)
            in
            (sg, `Impl tstr)
        in
        env :=
          Env.add_module
            (Ident.create_persistent modname)
            Types.Mp_present (Types.Mty_signature sg) !env;
        (modname, path, typed)
      with e ->
        let msg =
          match Location.error_of_exn e with
          | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
          | _ -> Printexc.to_string e
        in
        failwith (Printf.sprintf "fixture %s failed to typecheck: %s" path msg))
    srcs

let analyze_sources ?(config = default_config) srcs =
  let typed = typecheck_sources srcs in
  let intf_of m =
    List.find_map
      (function m', p, `Intf sg when m' = m -> Some (Lint.normalize p, sg) | _ -> None)
      typed
  in
  let units =
    List.filter_map
      (function
        | m, p, `Impl str ->
          let u_file = Lint.normalize p in
          let u_intf = Option.map (fun i -> Lazy.from_val (Some i)) (intf_of m) in
          Some { u_name = replace_dunder m; u_file; u_impl = str; u_intf }
        | _, _, `Intf _ -> None)
      typed
  in
  run_rules ~cfg:config ~sources:(List.map (fun (_, p, s) -> (Lint.normalize p, s)) srcs) units
