(** Project-specific static analysis over OCaml sources (untyped AST).

    Eleven rules guard the invariants the parallel numeric core and the
    serving layer depend on; see {!rules} for the list and
    {!default_config} for the allowlists. A comment
    [(* lint: allow rule-a rule-b *)] anywhere in a file suppresses
    those rules for that file; [(* lint: allow-next rule *)] suppresses
    a rule on the next source line only. The diagnostic, rendering and
    suppression machinery here is shared with the whole-program
    typedtree analyzer ({!Analysis}); the pathsel-lint driver runs both. *)

type severity = Error | Warning

type diagnostic = {
  rule : string;
  severity : severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;   (** 0-based *)
  message : string;
}

type config = {
  unsafe_allowlist : string list;
  raw_domain_dirs : string list;
  catchall_allowlist : string list;
  rng_dirs : string list;
  io_checked_dirs : string list;
      (** directories where raw blocking Unix I/O is banned *)
  io_wrapper_files : string list;
      (** the timeout-wrapped helpers: the only raw-I/O homes *)
  monitor_files : string list;
      (** the monitor/reselect thread: no locks, joins or blocking waits
          ([no-blocking-in-monitor]) — the self-healing loop shares
          state with the serving path through Atomic snapshots only *)
  dense_pool_banned_files : string list;
      (** the streaming pool front-end: no [Sparse.to_dense] or
          [Mat.of_arrays]/[Mat.to_arrays]/[Mat.of_rows]
          ([no-dense-pool]) — million-path pools must stay CSR and be
          consumed through the mat-mul operator *)
  wal_write_files : string list;
      (** the WAL implementation, the only home for raw [Unix.write]s
          to wal-named fds/paths ([no-unfsynced-wal]) — everything else
          must go through [Store.Wal.append], whose frame CRC + fsync
          is the journal-before-ack durability point *)
}

val default_config : config

val rules : (string * severity * string) list
(** [(name, default severity, one-line description)] for every rule. *)

val lint_source : ?config:config -> path:string -> string -> diagnostic list
(** Lint source text as if it lived at [path] (the path drives the
    directory-scoped rules). Unparseable input yields a single
    ["syntax"] diagnostic rather than raising. *)

val lint_file : ?config:config -> string -> diagnostic list

val lint_paths : ?config:config -> string list -> diagnostic list
(** Recursively lints every [.ml] under the given files/directories,
    skipping [_build] and dot-directories. *)

val severity_string : severity -> string

val render_text : diagnostic -> string
(** [file:line:col: severity [rule] message] *)

val render_json : diagnostic list -> string
(** JSON array of diagnostic objects, for machine consumption. *)

val render_sarif :
  tool:string -> rules:(string * severity * string) list -> diagnostic list -> string
(** SARIF 2.1.0 (one run, located results), for CI diff annotation.
    [tool] names the driver and [rules] is its rule table. *)

val has_errors : diagnostic list -> bool

(** {2 Suppression comments}

    Shared by both engines: the syntactic linter applies them to the
    source it just parsed, and the typedtree analyzer reads the source
    file named by each [.cmt] to honor the same comments. *)

type suppressions = {
  file_wide : string list;  (** [(* lint: allow rule ... *)] *)
  next_line : (int * string) list;
      (** [(line, rule)] from [(* lint: allow-next rule ... *)]: the
          rule is suppressed on [line + 1] only *)
}

val no_suppressions : suppressions
val suppressions_of_source : string -> suppressions
val filter_suppressed : suppressions -> diagnostic list -> diagnostic list

(** {2 Path classification and file helpers} (shared with {!Analysis}) *)

val normalize : string -> string
(** backslashes to slashes, leading "./" stripped *)

val path_is : string -> string -> bool
(** [path_is p f]: [p] names file [f], exactly or as a
    component-boundary suffix. *)

val path_under : string -> string -> bool
(** [path_under p dir]: [p] lives under directory [dir] at any depth. *)

val in_any : string -> string list -> bool
(** [in_any p dirs = List.exists (path_under p) dirs] *)

val read_file : string -> string
