(** The served-soak lifecycle shared by the serving experiments (E14,
    E16, E17, E18, E20), the child-process primitive behind it, the BENCH
    writer every [BENCH_*.json] goes through, and the small timing and
    wire helpers they share.

    A session owns a private temp directory holding a saved copy of the
    artifact and the server's Unix socket. Server children are spawned
    from it with {!spawn}, reached with {!connect}, stopped with
    {!drain} and collected with {!reap}. However the body ends, every
    child not yet reaped is SIGKILLed and reaped and the directory is
    removed; an exception from the body is then re-raised. *)

(* lint: allow-next unused-export: the soak runs it; the kill-child tests use it *)
val child : (unit -> unit) -> int
(** [child f] runs [f] in a new process and returns its pid. [f] is
    marshalled with its environment ([Marshal.Closures]) to a temp file,
    and [Sys.executable_name] is exec'd on it; the child process runs
    {!child_main} first, so parent and child are the same binary and the
    closure's code pointers are valid in both. The child sets its
    {!Par.Pool} size to the caller's, runs [f], and exits 0 when [f]
    returns or 1 (after printing the exception) when it raises. Unlike
    a fork, this works after worker domains or threads exist. *)

val child_main : unit -> unit
(** The first statement of every executable that calls {!child}: when
    the command line names a child's closure file, run the closure and
    exit; otherwise return. *)

val artifact :
  fingerprint:string -> eps:float -> Core.Pipeline.setup -> Core.Select.t -> Store.t
(** The artifact a soak serves: the selection on the setup's pool at
    its [t_cons]. *)

type t

val with_session : Store.t -> (t -> 'a) -> 'a

val dir : t -> string
(** The session's temp directory, for extra files (a proxy socket, a
    WAL directory) that must go when the session does. *)

val artifact_path : t -> string
(** The saved artifact: the reload path for [?reload_from]. *)

val addr : t -> Serve.address

type exit = Clean | Failed | Killed
(** [Clean]: [Serve.run] returned. [Failed]: loading the artifact or
    [Serve.run] raised, or the child ended any other way. [Killed]: SIGKILL. *)

val spawn : ?config:Serve.config -> ?reload_from:string -> t -> int
(** A {!child} that loads the session's saved artifact and serves it on
    {!addr}. Returns the pid at once, without waiting for the server to
    listen; {!connect} retries until it does. *)

val connect : t -> Serve.Client.conn
(** Connect to {!addr}, retrying for up to 10 s of server startup. *)

val drain : t -> unit
(** Send the [shutdown] op on a fresh connection, then close it. A
    soak's own long-lived connection may have been reaped by the
    server's idle timeout, and a shutdown lost on it would leave
    {!reap} waiting forever. A server that no longer accepts
    connections is left for {!reap} to classify. *)

val stats : t -> (Serve.Wire.json, string) result
(** The [stats] op on a fresh connection, for the same reason as
    {!drain}; [Error] when the server no longer accepts connections. *)

val reap : t -> int -> exit
(** Wait for a child {!spawn}ed from this session and classify how it
    ended. *)

val write :
  ?oc:out_channel -> ?out:string -> string -> (string * Core.Report.json) list -> unit
(** [write ?out experiment fields] writes the BENCH object — the
    [experiment] key, {!Host.fields}, then [fields] — to [out] and
    prints [wrote <out>] to [oc] (default [stdout]). Without [out] it
    writes nothing. Raises [Invalid_argument] naming the key, before
    writing anything and with or without [out], when a key of that
    object appears twice. *)

val time : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

val rows_of : Linalg.Mat.t -> int -> int -> Linalg.Mat.t
(** [rows_of m i0 k]: the [k] contiguous rows of [m] from row [i0]. *)

(** Fields of a wire response, with a fallback when absent or
    mistyped. *)

val int_stat : Serve.Wire.json -> string -> int
(** A counter: 0 when absent. *)

val int_member : Serve.Wire.json -> string -> int
(** An exact value: [min_int] when absent, so it never matches. *)

val float_member : Serve.Wire.json -> string -> float
(** NaN when absent; an [Int] is widened. *)

val string_member : Serve.Wire.json -> string -> string
(** [""] when absent. *)
