(** The self-healing loop: drift monitoring and background
    re-selection.

    Connection workers {!submit} observations — fully measured dies with
    their prediction residual — through a lock-free queue; a single
    monitor thread drains it with {!step}. Each step (1) calibrates a
    {!Stats.Drift} detector from the first healthy residuals, then feeds
    it; (2) keeps a ring of recent full-die delay vectors; and (3) when
    the detector binds ([Drifted]), invokes the [reselect] callback on
    the recent dies — off the hot path — with a cooldown and
    exponential backoff on failure.

    Locking discipline: this module must never block. Submission is a
    compare-and-set push; every externally visible figure is published
    as an immutable {!report} snapshot through an [Atomic]. The
    [no-blocking-in-monitor] lint rule forbids [Mutex]/[Condition]/
    [Thread.join] (and raw socket I/O, via [no-unbounded-io]) here, so
    a stalled reselect can slow {e this} thread only — serving never
    waits on the monitor. {!step} and {!swapped} must be called from a
    single thread; {!submit} and {!read} are safe from any thread. *)

type config = {
  calibrate : int;
      (** Healthy residuals used to estimate a detector's reference
          mean/sigma before monitoring starts — per wafer group.
          Default [32]. *)
  drift : Stats.Drift.config;  (** Detector thresholds (every group). *)
  max_groups : int;
      (** Bound on the per-wafer detector table
          ({!Stats.Drift.Grouped}); unknown wafers past the cap share
          the default group. Default [64]. *)
  min_dies : int;
      (** Recent dies required before a re-selection may run.
          Default [64]. *)
  buffer : int;
      (** Ring capacity of recent full-die vectors. Default [256]. *)
  cooldown : float;
      (** Seconds between re-selection attempts (also the delay after a
          success before the detector may trigger again). Default [5]. *)
  max_backoff : float;
      (** Failure backoff cap, seconds (doubles from [cooldown]).
          Default [60]. *)
  pending_cap : int;
      (** Observations queued between steps before {!submit} drops
          (counted, never blocking). Default [4096]. *)
}

val default_config : config

(** One fully measured die, as seen by a connection worker. *)
type obs = {
  measured : float array;  (** representative-path delays, length [r] *)
  truth : float array;  (** measured remaining-path delays, length [m] *)
  full : float array;
      (** all [n_paths] delays, scattered from [measured]/[truth] in
          artifact path order — re-selection input *)
  resid : float;
      (** prediction residual for this die (mean over predicted paths),
          computed against the snapshot that served it *)
  wafer : string;
      (** wafer/lot id keying drift calibration; [""] (the default
          group) for flat streams that don't distinguish wafers *)
}

(** Immutable stats snapshot, refreshed after every {!step}. *)
type report = {
  observed : int;  (** dies accepted into the stream *)
  skipped : int;  (** dies rejected (shape mismatch / non-finite) *)
  dropped : int;  (** submissions lost to a full queue *)
  calibrating : bool;  (** no wafer group has finished calibration *)
  state : Stats.Drift.state;  (** worst state across wafer groups *)
  cusum : float;  (** max across groups; 0 while calibrating *)
  var_ratio : float;  (** max across groups; [nan] until a window fills *)
  quarantined : bool;  (** some group's detector quarantined itself *)
  groups : int;  (** wafer groups tracked (the default group counts) *)
  group_overflow : int;
      (** observations folded into the default group because the wafer
          table was full *)
  monitor_errors : int;
      (** monitor loop failures recorded via {!note_error} *)
  reselects : int;  (** successful background re-selections *)
  reselect_failures : int;
  last_reselect_ms : float;  (** [nan] before the first success *)
  backoff_s : float;  (** current failure backoff (0 = none pending) *)
  last_error : string;  (** last re-selection failure ([""] if none) *)
}

type t

val create :
  ?config:config ->
  n_paths:int ->
  r:int ->
  m:int ->
  reselect:(Linalg.Mat.t -> (int * int * float, string) result) ->
  unit ->
  t
(** [reselect recent] re-runs selection on a [dies x n_paths] matrix of
    recent fully measured dies and swaps the resulting artifact in,
    returning the new [(r, m)] split plus its own wall time in
    milliseconds on success (the monitor deliberately keeps no clock)
    — see [Serve]'s wiring, which routes it through [Store.save] and
    the atomic-reload machinery. It runs on the monitor thread and must
    not raise. Raises [Invalid_argument] on inconsistent dimensions or
    a malformed config. *)

val n_paths : t -> int
(** The path-pool size the monitor was built for; artifacts swapped in
    must keep it (the ring of full dies is indexed by it). *)

val submit : ?seq:int -> t -> obs -> unit
(** Lock-free enqueue; never blocks, drops (and counts) past
    [pending_cap] — except journaled records ([seq > 0]), which bypass
    the cap: their producer is already throttled by the WAL fsync, and
    dropping an acked record would let a later sequence number mark it
    applied, so recovery would never replay it. Safe from any thread.
    [seq] (default [0] = not journaled) is the observation's WAL
    sequence number: the monitor
    tracks the highest one folded in ({!applied_seq}) so checkpoints
    know where the replay suffix starts, and ignores a journaled
    record it has already applied — replay is idempotent. *)

val step : t -> now:float -> unit
(** Drain the queue, update detector and ring, and trigger a
    re-selection when drift binds and the cooldown/backoff allows.
    [now] is the caller's wall clock (seconds); the monitor keeps no
    clock of its own, which also makes backoff testable. Never raises:
    malformed or non-finite observations are counted in [skipped] and
    the detector can quarantine itself, but the serving path is never the
    monitor's to break. *)

val read : t -> report
(** Latest published snapshot. Safe from any thread. *)

val swapped : t -> r:int -> m:int -> unit
(** Tell the monitor the serving artifact changed under it: reset the
    detector (to recalibrate against the new model's residuals) at the
    new [(r, m)] split. An operator swap
    (SIGHUP reload) also clears any pending re-selection backoff; when
    the swap is the monitor's own re-selection landing, the
    post-reselect cooldown survives. The recent-die ring survives
    either way — full die vectors are artifact-independent. Monitor
    thread only. *)

val note_error : t -> string -> unit
(** Record a monitor-loop failure (counted in [monitor_errors], shown
    as [last_error]) and republish the report. For the caller's
    thread-level fail-safe around {!step}: the loop survives, the
    operator sees it. Monitor thread only. *)

(** {2 Durability}

    A checkpoint is the monitor-thread state itself, encoded: the
    per-wafer detectors, the recent-die ring, the counters and the
    re-selection pacing, read in place by {!encode} and built back by
    {!decode} on the artifact codec ({!Store.Codec}), so every float
    round-trips bit-exactly. The encoding is canonical (ring rows
    oldest first, wafer groups sorted by id): equal states give equal
    bytes. Recovery is {!decode} of the last checkpoint followed by
    {!replay} of the WAL records above its {!applied_seq}; the result
    is bit-exactly the state an uninterrupted run over the same die
    stream would hold (QCheck-property-tested in
    [test/test_monitor.ml]). [Serve.Durable] frames the payload into a
    checkpoint file. *)

val encode : Store.Codec.W.t -> t -> unit
(** Append the checkpoint payload. Monitor thread only (or after it is
    joined): nothing else may move the state while it is read. *)

val decode :
  ?config:config ->
  reselect:(Linalg.Mat.t -> (int * int * float, string) result) ->
  Store.Codec.R.t ->
  t
(** Rebuild a monitor mid-stream from an {!encode}d payload. The
    payload's own detector config and [(r, m)] split win over [config]
    for everything already accumulated, and its [r + m] is the path
    pool ({!n_paths}); [config] governs the capacity knobs (ring
    [buffer], [pending_cap], pacing). With the [buffer] that wrote it
    the ring comes back bit-identical; a smaller one keeps the newest
    rows, and a larger one holds the rows there are. Raises
    {!Store.Codec.Malformed} or {!Store.Codec.Truncated} on bytes
    {!encode} cannot write (a calibration buffer or window of the wrong
    length, more ring rows than dies, group ids out of order, no
    default group), and [Invalid_argument] on an invalid config or
    split; {!Store.Codec.decode} and {!Store.unframe} turn each into an
    error value. Every payload it accepts re-encodes to itself, except
    one written with a different ring [buffer]. *)

val split : t -> int * int
(** The [(r, m)] split the detector is anchored to. *)

val applied_seq : t -> int
(** Highest WAL sequence number folded into this state ([0] when
    durability is off) — where the next checkpoint's replay suffix
    starts. Monitor thread only. *)

val replay : t -> (int * obs) list -> unit
(** [replay t records] re-applies journaled observations (in sequence
    order, as {!Store.Wal.fold} yields them) directly — bypassing the
    bounded queue, so a long WAL suffix cannot shed — then republishes
    the report. Records at or below {!applied_seq}
    are skipped. No re-selection fires during replay: the first live
    {!step} decides, so recovery adds at most one cooldown of delay.
    Monitor thread only, before serving starts. *)
