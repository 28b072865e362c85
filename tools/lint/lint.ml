(* pathsel-lint: project-specific static analysis over the untyped AST.

   Parses every .ml source with the installed compiler's own parser
   (compiler-libs) and walks the Parsetree enforcing the invariants the
   parallel numeric core depends on. Rules are syntactic: no type
   information is available, so e.g. [no-float-eq] recognises an operand
   as a float when it is a float literal, an application of a float
   operator/function, or carries a [: float] constraint. That catches
   every violation this codebase has had in practice and keeps the pass
   dependency-free and fast.

   Suppression: a comment [(* lint: allow rule-a rule-b *)] anywhere in
   a file silences those rules for that file; [(* lint: allow-next
   rule *)] silences a rule for the next source line only. Both forms
   are honored by this engine and by the typedtree analyzer (see
   analysis.ml); the pathsel-lint driver runs both. *)

type severity = Error | Warning

type diagnostic = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

type config = {
  unsafe_allowlist : string list;
      (* files where Array.unsafe_* / Bigarray unsafe access is allowed *)
  raw_domain_dirs : string list;  (* dirs where Domain.spawn/join are allowed *)
  catchall_allowlist : string list;  (* files where [try _ with _ ->] is allowed *)
  rng_dirs : string list;  (* dirs allowed to touch Random/Rng internals *)
  io_checked_dirs : string list;
      (* dirs where raw blocking Unix I/O is banned (serving code) *)
  io_wrapper_files : string list;
      (* the timeout-wrapped helpers themselves: the only raw-I/O homes *)
  monitor_files : string list;
      (* the monitor/reselect thread: must stay lock-free and non-blocking *)
  dense_pool_banned_files : string list;
      (* the streaming pool front-end: must never densify the pool *)
  wal_write_files : string list;
      (* the WAL implementation: the only home for raw writes to WAL fds *)
}

let default_config =
  {
    unsafe_allowlist = [ "lib/linalg/mat.ml"; "lib/linalg/vec.ml"; "lib/linalg/sparse.ml" ];
    raw_domain_dirs = [ "lib/par/" ];
    catchall_allowlist = [ "lib/core/errors.ml" ];
    rng_dirs = [ "lib/rng/" ];
    io_checked_dirs = [ "lib/serve/"; "lib/chaos/" ];
    io_wrapper_files = [ "lib/serve/io.ml" ];
    monitor_files = [ "lib/serve/monitor.ml" ];
    dense_pool_banned_files = [ "lib/timing/pool_stream.ml" ];
    wal_write_files = [ "lib/store/wal.ml" ];
  }

let rules =
  [
    ( "no-raw-domain",
      Error,
      "Domain.spawn/Domain.join outside lib/par/ (use Par.Pool)" );
    ( "no-self-init",
      Error,
      "Random.self_init anywhere; ambient Random.* in lib/ (thread Rng state)" );
    ( "unsafe-array",
      Error,
      "Array.unsafe_*/Bigarray unsafe access outside the kernel allowlist" );
    ( "no-float-eq",
      Error,
      "(=)/(<>) on float operands (use Float.equal or a tolerance helper)" );
    ( "no-catchall",
      Error,
      "try ... with _ -> / with e -> ignore e (match specific exceptions)" );
    ( "no-exit",
      Error,
      "exit/failwith in lib/ (raise typed exceptions or return Core.Errors)" );
    ( "mutable-global-in-par",
      Warning,
      "top-level ref referenced inside a Pool.parallel_for/parallel_chunks body" );
    ( "no-unbounded-io",
      Error,
      "raw Unix.read/write/connect in serving code (use the Serve.Io wrappers)" );
    ( "no-blocking-in-monitor",
      Error,
      "Mutex/Condition/Thread.join or blocking waits in the monitor/reselect \
       path (stay lock-free; publish through Atomic snapshots)" );
    ( "no-dense-pool",
      Error,
      "Sparse.to_dense / Mat.of_arrays / Mat.to_arrays / Mat.of_rows in the \
       streaming pool front-end (pools must stay CSR; consume them through \
       the mat-mul operator)" );
    ( "no-unfsynced-wal",
      Error,
      "raw Unix.write to a WAL fd/path outside Store.Wal (the append API is \
       the durability point: length-prefixed CRC frames + fsync before ack)" );
  ]

let severity_of_rule r =
  match List.find_opt (fun (n, _, _) -> n = r) rules with
  | Some (_, s, _) -> s
  | None -> Error

(* ------------------------------------------------------------------ *)
(* Path classification *)

let normalize p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

(* [p] names file [f] (relative to some repo root): exact match or a
   component-boundary suffix match, so "lib/linalg/mat.ml" matches both
   "lib/linalg/mat.ml" and "/abs/prefix/lib/linalg/mat.ml". *)
let path_is p f =
  let p = normalize p in
  p = f
  ||
  let lp = String.length p and lf = String.length f in
  lp > lf
  && String.sub p (lp - lf) lf = f
  && p.[lp - lf - 1] = '/'

let path_under p dir =
  let p = normalize p in
  let ld = String.length dir in
  (String.length p >= ld && String.sub p 0 ld = dir)
  ||
  let needle = "/" ^ dir in
  let ln = String.length needle in
  let rec scan i =
    if i + ln > String.length p then false
    else if String.sub p i ln = needle then true
    else scan (i + 1)
  in
  scan 0

let in_any p dirs = List.exists (path_under p) dirs
let is_any p files = List.exists (path_is p) files

(* ------------------------------------------------------------------ *)
(* Suppression comments.

   Two scopes:
     (* lint: allow rule-a rule-b *)       whole file
     (* lint: allow-next rule-a rule-b *)  the next source line only

   The line-scoped form goes on the line immediately above the
   construct it excuses, next to its justification, so one annotated
   exception cannot silently blanket the rest of the file. *)

type suppressions = {
  file_wide : string list;
  next_line : (int * string) list;
      (* (line of the comment, rule): suppresses [rule] on [line + 1] *)
}

let no_suppressions = { file_wide = []; next_line = [] }

let rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let suppressions_of_source src =
  let acc = ref no_suppressions in
  let n = String.length src in
  let line = ref 1 in
  let key = "lint:" in
  let skip_ws i =
    let i = ref i in
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
      incr i
    done;
    !i
  in
  let starts_with i s = i + String.length s <= n && String.sub src i (String.length s) = s in
  (* collect whitespace-separated rule names after the keyword; stops at
     the first token that is not a rule name (e.g. "*)") *)
  let rec collect scope i =
    let i = skip_ws i in
    if i >= n || not (rule_char src.[i]) then i
    else begin
      let j = ref i in
      while !j < n && rule_char src.[!j] do
        incr j
      done;
      let rule = String.sub src i (!j - i) in
      (match scope with
       | `File -> acc := { !acc with file_wide = rule :: !acc.file_wide }
       | `Next l -> acc := { !acc with next_line = (l, rule) :: !acc.next_line });
      collect scope !j
    end
  in
  let i = ref 0 in
  while !i < n do
    if src.[!i] = '\n' then begin
      incr line;
      incr i
    end
    else if starts_with !i key then begin
      let j = skip_ws (!i + String.length key) in
      (* "allow-next" must be tried first: "allow" is its prefix and a
         naive match would read "-next" as the first rule name *)
      if starts_with j "allow-next" then i := collect (`Next !line) (j + 10)
      else if starts_with j "allow" then i := collect `File (j + 5)
      else i := j
    end
    else incr i
  done;
  !acc

let suppressed sup (d : diagnostic) =
  List.mem d.rule sup.file_wide
  || List.exists
       (fun (line, rule) -> rule = d.rule && d.line = line + 1)
       sup.next_line

let filter_suppressed sup diags = List.filter (fun d -> not (suppressed sup d)) diags

(* ------------------------------------------------------------------ *)
(* AST helpers *)

open Parsetree

let rec drop_stdlib = function "Stdlib" :: rest -> drop_stdlib rest | l -> l

let ident_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (drop_stdlib (Longident.flatten txt))
  | _ -> None

let loc_of (l : Location.t) =
  let p = l.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let float_fun_idents =
  [ "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "cos"; "sin"; "tan";
    "acos"; "asin"; "atan"; "atan2"; "cosh"; "sinh"; "tanh"; "ceil"; "floor";
    "abs_float"; "mod_float"; "float_of_int"; "float_of_string"; "float";
    "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

(* syntactic "this expression is a float": literal, float operator or
   known float function application, Float.* access, or [: float]. *)
let floaty (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ })
    ->
    true
  | Pexp_ident { txt; _ } -> (
    match drop_stdlib (Longident.flatten txt) with
    | "Float" :: _ :: _ -> true
    | [ x ] -> List.mem x [ "infinity"; "neg_infinity"; "nan"; "epsilon_float";
                            "max_float"; "min_float" ]
    | _ -> false)
  | Pexp_apply (f, args) -> (
    match ident_path f with
    | Some [ op ] when List.mem op float_ops -> true
    | Some [ fn ] when List.mem fn float_fun_idents -> true
    | Some ("Float" :: rest)
      when not (List.mem rest [ [ "equal" ]; [ "compare" ]; [ "is_nan" ];
                                [ "is_finite" ]; [ "is_integer" ]; [ "sign_bit" ] ])
      ->
      true
    | _ ->
      ignore args;
      (* partially-applied operator section: ((+.) a) b *)
      (match f.pexp_desc with
       | Pexp_apply (g, _) -> (
         match ident_path g with
         | Some [ op ] when List.mem op float_ops -> true
         | _ -> false)
       | _ -> false))
  | _ -> false

let is_fun (e : expression) =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let contains_ci s sub =
  let s = String.lowercase_ascii s in
  let ls = String.length s and n = String.length sub in
  let rec scan i = i + n <= ls && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

(* syntactic "this expression smells like the WAL": a wal-named
   identifier/field or a string literal mentioning wal. Type-free, like
   [floaty] — the rule wants the fd or path argument of a raw write. *)
let rec mentions_wal (e : expression) =
  let walish l = List.exists (fun c -> contains_ci c "wal") l in
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> contains_ci s "wal"
  | Pexp_ident { txt; _ } -> walish (Longident.flatten txt)
  | Pexp_field (e', { txt; _ }) ->
    mentions_wal e' || walish (Longident.flatten txt)
  | Pexp_apply (f, args) ->
    mentions_wal f || List.exists (fun (_, a) -> mentions_wal a) args
  | Pexp_constraint (e', _) -> mentions_wal e'
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The pass *)

type ctx = {
  path : string;
  cfg : config;
  mutable diags : diagnostic list;
  mutable top_refs : (string * Location.t) list;
}

let emit ctx rule loc message =
  let line, col = loc_of loc in
  ctx.diags <-
    { rule; severity = severity_of_rule rule; file = ctx.path; line; col; message }
    :: ctx.diags

let in_lib ctx = path_under ctx.path "lib/"

(* collect [let name = ref ...] at the structure top level *)
let collect_top_refs ctx (str : structure) =
  List.iter
    (fun (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | ( Ppat_var { txt = name; _ },
                Pexp_apply (f, _) ) -> (
              match ident_path f with
              | Some [ "ref" ] -> ctx.top_refs <- (name, vb.pvb_loc) :: ctx.top_refs
              | _ -> ())
            | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _), _
              -> (
              match vb.pvb_expr.pexp_desc with
              | Pexp_apply (f, _) -> (
                match ident_path f with
                | Some [ "ref" ] ->
                  ctx.top_refs <- (name, vb.pvb_loc) :: ctx.top_refs
                | _ -> ())
              | _ -> ())
            | _ -> ())
          vbs
      | _ -> ())
    str

(* flag references to top-level refs inside a closure body *)
let scan_par_body ctx (body : expression) =
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
           | Pexp_ident { txt = Lident name; loc } ->
             if List.mem_assoc name ctx.top_refs then
               emit ctx "mutable-global-in-par" loc
                 (Printf.sprintf
                    "top-level ref '%s' referenced inside a parallel region body; \
                     shared mutable state under Pool.parallel_for is a data race \
                     unless externally synchronised"
                    name)
           | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body

let check_expr ctx (e : expression) =
  (match e.pexp_desc with
   | Pexp_ident _ -> (
     match ident_path e with
     | Some [ "Domain"; ("spawn" | "join") ]
       when not (in_any ctx.path ctx.cfg.raw_domain_dirs) ->
       emit ctx "no-raw-domain" e.pexp_loc
         "raw Domain.spawn/join outside lib/par/; route parallelism through \
          Par.Pool so domain count, nesting and fork safety stay centralised"
     | Some ("Random" :: rest) ->
       if rest = [ "self_init" ] then
         emit ctx "no-self-init" e.pexp_loc
           "Random.self_init breaks reproducibility; seed an explicit Rng state"
       else if in_lib ctx && not (in_any ctx.path ctx.cfg.rng_dirs) then
         emit ctx "no-self-init" e.pexp_loc
           "ambient Random.* in library code; thread an explicit Rng state \
            (strict-sample-order determinism depends on it)"
     | Some [ "Array"; ("unsafe_get" | "unsafe_set") ]
       when not (is_any ctx.path ctx.cfg.unsafe_allowlist) ->
       emit ctx "unsafe-array" e.pexp_loc
         "Array.unsafe_* outside the kernel allowlist; use checked access or \
          move the kernel into an allowlisted file"
     | Some p
       when List.mem "Bigarray" p
            && (match List.rev p with
                | last :: _ ->
                  String.length last > 7 && String.sub last 0 7 = "unsafe_"
                | [] -> false)
            && not (is_any ctx.path ctx.cfg.unsafe_allowlist) ->
       emit ctx "unsafe-array" e.pexp_loc
         "Bigarray unsafe access outside the kernel allowlist"
     | Some
         [ "Unix";
           (("read" | "write" | "write_substring" | "single_write" | "connect")
            as fn) ]
       when in_any ctx.path ctx.cfg.io_checked_dirs
            && not (is_any ctx.path ctx.cfg.io_wrapper_files) ->
       emit ctx "no-unbounded-io" e.pexp_loc
         (Printf.sprintf
            "raw Unix.%s in serving code can block forever on a slow or dead \
             peer; call the deadline-carrying wrappers in Serve.Io (the only \
             allowlisted home for raw socket I/O)"
            fn)
     | Some [ ("Mutex" | "Condition" | "Thread" | "Unix") as m; fn ]
       when is_any ctx.path ctx.cfg.monitor_files
            && (match (m, fn) with
                | "Mutex", ("lock" | "try_lock") -> true
                | "Condition", ("wait" | "wait_timeout") -> true
                | "Thread", ("join" | "delay") -> true
                | "Unix", ("select" | "sleep" | "sleepf") -> true
                | _ -> false) ->
       emit ctx "no-blocking-in-monitor" e.pexp_loc
         (Printf.sprintf
            "%s.%s in the monitor/reselect path: the self-healing loop must \
             never block (a stalled reselect may slow only its own thread), \
             so share state through Atomic snapshots and let the caller own \
             all waiting"
            m fn)
     | Some p
       when is_any ctx.path ctx.cfg.dense_pool_banned_files
            && (match List.rev p with
                | "to_dense" :: "Sparse" :: _ -> true
                | ("of_arrays" | "to_arrays" | "of_rows") :: "Mat" :: _ -> true
                | _ -> false) ->
       emit ctx "no-dense-pool" e.pexp_loc
         (Printf.sprintf
            "%s in the streaming pool front-end: a million-path pool must \
             never be densified — keep it CSR and consume it through the \
             Rsvd mat-mul operator (Pool_stream.op)"
            (String.concat "." p))
     | Some [ ("exit" | "failwith") as fn ] when in_lib ctx ->
       emit ctx "no-exit" e.pexp_loc
         (Printf.sprintf
            "%s in library code; raise a typed exception (mapped by \
             Core.Errors.of_exn) or return a Core.Errors result"
            fn)
     | _ -> ())
   | Pexp_apply (f, args) -> (
     (match ident_path f with
      | Some [ ("=" | "<>") as op ]
        when List.exists (fun (_, a) -> floaty a) args ->
        emit ctx "no-float-eq" e.pexp_loc
          (Printf.sprintf
             "(%s) on float operands; use Float.equal (exact, NaN-sound) or an \
              explicit tolerance"
             op)
      | Some
          [ "Unix";
            (("write" | "single_write" | "write_substring") as fn) ]
        when (not (is_any ctx.path ctx.cfg.wal_write_files))
             && List.exists (fun (_, a) -> mentions_wal a) args ->
        emit ctx "no-unfsynced-wal" e.pexp_loc
          (Printf.sprintf
             "Unix.%s to a WAL fd/path outside Store.Wal: bytes that bypass \
              the append API carry no frame CRC and no fsync, so an ack built \
              on them is not durable — append through Store.Wal.append"
             fn)
      | Some p -> (
        match List.rev p with
        | ("parallel_for" | "parallel_chunks") :: "Pool" :: _ ->
          List.iter
            (fun (_, a) -> if is_fun a then scan_par_body ctx a)
            args
        | _ -> ())
      | None -> ()))
   | Pexp_try (_, cases) ->
     if not (is_any ctx.path ctx.cfg.catchall_allowlist) then
       List.iter
         (fun (c : case) ->
           match (c.pc_lhs.ppat_desc, c.pc_guard) with
           | Ppat_any, None ->
             emit ctx "no-catchall" c.pc_lhs.ppat_loc
               "catch-all 'with _ ->' swallows Out_of_memory, Stack_overflow \
                and typed errors alike; match the exceptions you mean (or \
                suppress with (* lint: allow no-catchall *) and a justification)"
           | Ppat_var { txt = v; _ }, None -> (
             match c.pc_rhs.pexp_desc with
             | Pexp_apply (f, [ (_, arg) ]) -> (
               match (ident_path f, arg.pexp_desc) with
               | Some [ "ignore" ], Pexp_ident { txt = Lident v'; _ } when v = v'
                 ->
                 emit ctx "no-catchall" c.pc_lhs.ppat_loc
                   "'with e -> ignore e' is a disguised catch-all; match the \
                    exceptions you mean"
               | _ -> ())
             | _ -> ())
           | _ -> ())
         cases
   | _ -> ())

let lint_structure ctx (str : structure) =
  collect_top_refs ctx str;
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          check_expr ctx e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter str

(* ------------------------------------------------------------------ *)
(* Entry points *)

let lint_source ?(config = default_config) ~path src =
  let ctx = { path = normalize path; cfg = config; diags = []; top_refs = [] } in
  (try
     let lexbuf = Lexing.from_string src in
     Lexing.set_filename lexbuf path;
     let str = Parse.implementation lexbuf in
     lint_structure ctx str
   with
  | Syntaxerr.Error _ ->
    ctx.diags <-
      {
        rule = "syntax";
        severity = Error;
        file = ctx.path;
        line = 1;
        col = 0;
        message = "file does not parse; run the compiler for details";
      }
      :: ctx.diags
  | Lexer.Error (_, loc) ->
    let line, col = loc_of loc in
    ctx.diags <-
      {
        rule = "syntax";
        severity = Error;
        file = ctx.path;
        line;
        col;
        message = "lexer error";
      }
      :: ctx.diags);
  let kept = filter_suppressed (suppressions_of_source src) ctx.diags in
  List.sort
    (fun a b ->
      match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
    kept

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?config path = lint_source ?config ~path (read_file path)

let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else walk acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths ?config paths =
  let files = List.sort compare (List.fold_left walk [] paths) in
  List.concat_map (fun f -> lint_file ?config f) files

(* ------------------------------------------------------------------ *)
(* Rendering *)

let severity_string = function Error -> "error" | Warning -> "warning"

let render_text d =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" d.file d.line d.col
    (severity_string d.severity) d.rule d.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json diags =
  let item d =
    Printf.sprintf
      {|{"file":"%s","line":%d,"col":%d,"severity":"%s","rule":"%s","message":"%s"}|}
      (json_escape d.file) d.line d.col
      (severity_string d.severity)
      (json_escape d.rule) (json_escape d.message)
  in
  "[" ^ String.concat "," (List.map item diags) ^ "]"

(* SARIF 2.1.0, the minimal shape CI diff-annotators consume: one run,
   the rule table under tool.driver.rules, one result per diagnostic.
   pathsel-lint passes the union of both engines' rule tables. SARIF
   regions are 1-based in both coordinates; our columns are 0-based,
   hence the + 1. *)
let render_sarif ~tool ~rules diags =
  let buf = Buffer.create 4096 in
  let str s = "\"" ^ json_escape s ^ "\"" in
  Buffer.add_string buf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
     \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
  Buffer.add_string buf (Printf.sprintf "\"name\":%s,\"rules\":[" (str tool));
  List.iteri
    (fun i (name, sev, doc) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%s,\"shortDescription\":{\"text\":%s},\
            \"defaultConfiguration\":{\"level\":%s}}"
           (str name) (str doc) (str (severity_string sev))))
    rules;
  Buffer.add_string buf "]}},\"results\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ruleId\":%s,\"level\":%s,\"message\":{\"text\":%s},\
            \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
            {\"uri\":%s},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
           (str d.rule)
           (str (severity_string d.severity))
           (str d.message) (str d.file) d.line (d.col + 1)))
    diags;
  Buffer.add_string buf "]}]}";
  Buffer.contents buf

let has_errors diags = List.exists (fun d -> d.severity = Error) diags
