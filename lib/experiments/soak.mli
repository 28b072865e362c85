(** The served-soak lifecycle shared by the serving experiments (E14,
    E16, E17, E18, E20), the BENCH writer every [BENCH_*.json] goes
    through, and the small timing and wire helpers they share.

    A session owns a private temp directory holding a saved copy of the
    artifact and the server's Unix socket. Server children are forked
    from it with {!spawn}, reached with {!connect}, stopped with
    {!drain} and collected with {!reap}. However the body ends, every
    child not yet reaped is SIGKILLed and reaped and the directory is
    removed; an exception from the body is then re-raised. *)

val single_domain : unit -> unit
(** Pin {!Par.Pool} to one lane. OCaml 5.1 refuses [Unix.fork] once any
    domain has been spawned, so a soak calls this first, before its
    setup (selection, Monte Carlo) could start pool workers. Every
    kernel is bit-identical at any pool size, so only setup speed
    changes. It cannot help a process that already spawned domains. *)

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
(** [Clean]: [Serve.run] returned. [Failed]: it raised, or the child
    ended any other way. [Killed]: SIGKILL. *)

val spawn : ?config:Serve.config -> ?reload_from:string -> t -> int
(** Flush every output channel, then fork a child serving the session's
    artifact on {!addr}. The child always [_exit]s — 0 when
    [Serve.run] returns, 1 when it raises — so it never unwinds into the
    caller's stack. Fork before starting any thread. Returns the pid. *)

val connect : t -> Serve.Client.conn
(** Connect to {!addr}, retrying for up to 10 s of server startup. *)

val drain : t -> unit
(** Send the [shutdown] op on a fresh connection, then close it. A
    soak's own long-lived connection may have been reaped by the
    server's idle timeout, and a shutdown lost on it would leave
    {!reap} waiting forever. A server that no longer accepts
    connections is left for {!reap} to classify. *)

val reap : t -> int -> exit
(** Wait for a child {!spawn}ed from this session and classify how it
    ended. *)

val write :
  ?oc:out_channel -> ?out:string -> string -> (string * Core.Report.json) list -> unit
(** [write ?out experiment fields] writes the BENCH object — the
    [experiment] key, {!Host.fields}, then [fields] — to [out] and
    prints [wrote <out>] to [oc] (default [stdout]). No-op without
    [out]. *)

val time : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

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
