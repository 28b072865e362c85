(** Whole-program dataflow analysis over the typedtree ([.cmt] files).

    The interprocedural companion to {!Lint}: builds a call graph with
    per-function effect summaries and checks atomics/race discipline
    between the monitor thread and the serving path, blocking-call
    reachability (the interprocedural counterparts of
    [no-blocking-in-monitor] and [no-unbounded-io], which see whole
    files instead), path-sensitive fd-leak freedom, and that every
    [val] of lib's interfaces has a user in another compilation unit
    ([unused-export], which reads the consumer trees' [.cmt] files
    too). Shares
    {!Lint.diagnostic}, the renderers, and the suppression-comment
    syntax (file-wide [lint: allow] and line-scoped
    [lint: allow-next]). *)

type config = {
  shared_mutable_dirs : string list;
      (** directories whose modules' mutable state falls under the
          race rule (their state must be monitor/serving-safe) *)
  fd_dirs : string list;
      (** directories whose modules get fd-leak tracking *)
  monitor_entries : string list;
      (** qualified names, e.g. ["Serve.Monitor.step"] *)
  serving_entries : string list;
  handler_entries : string list;
      (** deadline-scoped request handlers for [handler-blocking] *)
  io_wrapper_modules : string list;
      (** modules allowed to issue raw blocking syscalls *)
  blocking_calls : string list;
  raw_io_calls : string list;
  fd_creators : string list;
  fd_closers : string list;
  fd_transfers : string list;
      (** calls that take ownership of a descriptor argument *)
  thread_spawns : string list;
      (** thread boundaries: closures passed here are severed from the
          spawning function's summary *)
  boot_fns : string list;
      (** functions that run only in single-threaded phases — boot-time
          recovery before any worker or monitor thread is spawned (the
          decode/replay path under [Serve.create]) or the epilogue
          after they are joined (the final forced checkpoint):
          reachability traversals stop at them, so their writes into
          otherwise thread-owned state do not register as cross-thread
          races. A cut function that is itself listed as an entry is
          still seeded and analyzed on that side. *)
}

val default_config : config

val rules : (string * Lint.severity * string) list
(** [(name, severity, one-line description)] for the five rule
    families. *)

val find_cmts : string -> string list
(** All [.cmt] files under a directory (descending into dune's
    [.objs] dot-directories), excluding library alias modules. *)

val find_tree_cmts : string -> string list
(** [find_tree_cmts root]: {!find_cmts} of [root/lib] and of the trees
    that use lib ([bin], [bench], [test], [examples], [perfbench]) under
    [root]. *)

val analyze_cmts : ?config:config -> string list -> Lint.diagnostic list
(** Analyze the given [.cmt] files: lib's as one program, each with the
    [.cmti] beside it as its interface; those of the trees that use lib
    only as users of its exports. [unused-export] runs only when each
    of those trees has a cmt among them, and otherwise is skipped with
    a line on stderr, never run on a partial set. Unreadable or
    non-implementation cmts are skipped. Suppression comments are read
    from the source file each diagnostic names, resolved relative to
    the current directory. *)

val analyze_sources :
  ?config:config -> (string * string * string) list -> Lint.diagnostic list
(** [analyze_sources [(modname, path, source); ...]] typechecks the
    snippets in-process (in order, so later snippets can reference
    earlier modules by [modname]) and analyzes them as one program —
    the fixture-test entry point. [path] drives the directory-scoped
    config and diagnostic locations; a path ending in [.mli] makes the
    snippet that module's interface. A [modname] in dune's mangling
    ("Fix__Helper") is summarized as "Fix.Helper", as its cmt would be.
    Raises [Failure] if a snippet does not typecheck. *)
