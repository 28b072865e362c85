(** A fault-injecting socket proxy for chaos-testing the server.

    [Chaos.start] listens on one address and forwards byte chunks to an
    upstream {!Serve} server, mangling them per a composable fault
    {!spec} — the wire-level sibling of [Timing.Faults]' data-level
    injection. Faults compose: a chunk can be delayed {e and} corrupted
    {e and} dribbled out in fragments.

    Corruption writes the byte [0x01], a control character no token of
    the compact single-line JSON admits, so a corrupted frame can only
    fail to parse — never silently change a prediction. The E16 soak
    leans on that: every ["ok":true] answer must be bit-identical to the
    offline predictor even while every fault fires. *)

type spec = {
  delay_ms : float;       (** fixed forwarding delay per chunk, ms *)
  jitter_ms : float;      (** extra uniform delay in [\[0, jitter_ms\]] *)
  partial_write : float;  (** P(chunk dribbled out in small fragments) *)
  truncate : float;       (** P(chunk cut mid-frame, link then dropped) *)
  corrupt : float;        (** P(one byte replaced with [0x01]) *)
  disconnect : float;     (** P(link dropped instead of forwarding) *)
  stall : float;          (** P(connection accepted, then never answered) *)
  eintr_burst : int;      (** SIGUSR1s fired at [eintr_pid] per chunk *)
}

val none : spec
(** All faults off — a transparent proxy. *)

val of_string : string -> (spec, string) result
(** Comma-separated [key=value] fields over {!none}, mirroring
    [Timing.Faults.of_string]:
    ["delay=2,jitter=5,partial=0.2,truncate=0.05,corrupt=0.05,disconnect=0.02,stall=0.1,eintr=3"]. *)

val to_string : spec -> string
(** Only non-default fields, parseable by {!of_string}. *)

(** {1 Proxy} *)

type stats = {
  connections : int;
  chunks : int;
  bytes : int;
  delayed : int;
  partial_writes : int;
  truncated : int;
  corrupted : int;
  disconnected : int;
  stalled : int;
  eintr_signals : int;
}

type t

val start :
  ?seed:int ->
  ?eintr_pid:int ->
  spec ->
  listen:Serve.address ->
  upstream:Serve.address ->
  t
(** Bind [listen] and start the acceptor thread; each accepted
    connection gets its own pump thread and a deterministic
    per-connection RNG derived from [seed]. [eintr_pid] is the victim
    of [eintr_burst] signals (typically the server's pid). Also sets
    the calling process to ignore [SIGPIPE]: the proxy (and the lanes
    talking through it) hit mid-write hangups by design, and those
    must surface as [EPIPE] errors, not kill the host process. Raises
    [Invalid_argument] on an invalid spec. *)

val bound_addr : t -> Serve.address
(** The actual listening address ([Tcp 0] resolves to the real port). *)

val stats : t -> stats
(** Snapshot of the fault counters. *)

val stop : t -> unit
(** Stop accepting, join all pump threads, close and clean up the
    listening socket. *)

(** {1 Process-level killer}

    The proxy mangles bytes; this kills processes. Arming a killer
    against a server under live traffic lands a SIGKILL at a uniformly
    random point in whatever the server is doing — mid-WAL-append,
    mid-fsync, between a checkpoint's temp write and its rename — the
    crash distribution the durability layer claims to survive. SIGKILL
    cannot be caught, so no shutdown path gets to tidy up. The E20
    kill/recovery soak drives repeated arm→kill→restart cycles. *)
module Killer : sig
  type t

  val arm : ?seed:int -> min_delay:float -> max_delay:float -> int -> t
  (** [arm ~min_delay ~max_delay pid] starts a thread that SIGKILLs
      [pid] after a delay drawn uniformly from
      [\[min_delay, max_delay\]] seconds ([seed] makes the draw
      deterministic). A pid already gone when the timer fires is
      ignored — the kill point still counts. Raises [Invalid_argument]
      unless [0 <= min_delay <= max_delay], both finite. *)

  val delay : t -> float
  (** The drawn fire time, seconds after [arm]. *)

  val cancel : t -> bool
  (** Disarm (if the timer has not fired yet) and join the timer
      thread; returns whether the kill had already been sent. Always
      call it — an unjoined timer thread outlives its soak cycle. *)
end
