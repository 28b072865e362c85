(** The batched post-silicon prediction server.

    [pathsel select] re-runs the whole pipeline (netlist -> SSTA ->
    extraction -> SVD -> selection) on every invocation; this module is
    the serving half the paper's amortization argument implies. A
    long-running server loads one {!Store} artifact at startup, keeps
    the predictor's precomputed factors hot (the dense Theorem-2 weight
    matrix, and the Gram/cross blocks behind {!Core.Robust}'s
    per-pattern Cholesky solves), and answers batches of dies with one
    matrix-matrix apply instead of a per-die pipeline.

    {2 Protocol}

    Newline-delimited JSON over a Unix-domain or loopback TCP socket:
    one request object per line, one response object per line.

    {v
    {"op":"ping"}
    {"op":"stats"}
    {"op":"shutdown"}
    {"op":"predict","dies":[[d11,...,d1r],...],"robust":true}
    {"op":"observe","dies":[[d11,...,d1r],...],"truth":[[t11,...,t1m],...],
     "wafer":"W07"}
    {"op":"yield","method":"is","samples":8192,"seed":7,"t_cons":950.0}
    {"op":"tune","t_clk":940.0,"dies":[[d11,...,d1r],...],
     "buffers":[{"paths":[0,3],"levels":[{"offset_ps":0.0,"cost":0.0},
                                         {"offset_ps":-8.0,"cost":1.5}]}]}
    v}

    [dies] is one row of [r] measured representative-path delays per
    die; [null] entries are missing measurements. The optional
    [robust] flag — or any missing entry — routes the batch through
    {!Core.Robust} (MAD screen + per-survivor-pattern reduced solves on
    the predictor's Gram blocks); clean unflagged batches take
    the plain {!Core.Predictor} matrix path, and the two agree
    bit-for-bit on clean data. A malformed line poisons only its own
    response, never the connection or the accept loop.

    [observe] streams {e fully measured} dies — representative
    measurements plus ground-truth remaining-path delays — into the
    self-healing loop (enabled by {!config}'s [monitor]): dies passing
    the MAD/missing screen feed the drift detector and the incremental
    refit, and become re-selection input if drift binds. The optional
    [wafer] field keys drift calibration per wafer/lot group
    ({!Stats.Drift.Grouped}); streams that omit it behave exactly as
    before. Every ok response carries the artifact generation ([gen],
    starting at 1 and bumped by each hot swap) so consumers can
    correlate predictions with the model that produced them.

    {2 Decision ops}

    [yield] estimates the artifact's timing-yield at [t_cons] (default:
    the artifact's stored constraint) by importance sampling
    ({!Yield.importance}; ["method":"mc"] selects brute force instead).
    [samples] (default 4096, capped) and [seed] (default 1) make the
    answer a pure function of the request and the artifact — clients
    can recompute and audit the exact bits. The response carries both
    estimators ([p_fail], [sn_p_fail]), their standard errors, [ess],
    the dominant path, and the equal-confidence [sample_reduction]
    versus naive Monte Carlo.

    [tune] solves each die's minimum-cost tunable-buffer assignment
    ({!Tune.solve}) against [t_clk] (default: the artifact's
    constraint). Per-die delays come from [dies] (representative
    measurements, predicted to the full pool — the normal flow) or a
    caller-supplied full [delays] matrix. A die that cannot meet timing
    even at all-minimum offsets fails the {e whole} request with
    semantic code [65] naming the die, the worst path, and its deficit
    — a typed answer, never a transport failure, so clients do not
    retry it.

    {2 Failure codes}

    ["ok":false] responses carry a [code] in one of two vocabularies:

    - {b semantic} errors — bad shapes, over-limit batches, compute
      failures — carry the sysexits-style {e integer} codes of
      {!Core.Errors.exit_code}. Retrying one repeats the answer.
    - {b infrastructure} errors carry a {e string} code:
      ["overloaded"] (connection shed at the bounded queue),
      ["deadline_exceeded"] (the per-request wall clock expired),
      ["line_too_long"] (the {!Wire.default_max_line} cap tripped) and
      ["bad_frame"] (the line did not parse as JSON — possibly mangled
      in transit). These are safe to retry, and {!Client.retry} does.

    {2 Operations}

    The server runs a small pool of connection-worker threads (blocking
    socket calls release the OCaml runtime lock; the dense kernels
    behind each request still ride the {!Par.Pool} domains) behind a
    bounded accept queue. Past capacity, connections are refused with
    an ["overloaded"] response instead of piling into the kernel
    backlog. Every read and write carries a wall-clock budget
    ({!config}'s [deadline]); silent connections are reaped after
    [idle_timeout]. SIGINT/SIGTERM (and the [shutdown] op) drain
    in-flight requests before exit. When [reload_from] is given, SIGHUP
    loads and CRC-verifies that artifact off to the side and atomically
    swaps the predictor state — in-flight requests finish on the
    snapshot they started with, and a bad artifact is rejected without
    touching the serving state. *)

module Wire : module type of Wire
(** Re-export: [Serve] is the library's entry module, so the wire
    format is reachable as [Serve.Wire] from outside. *)

module Io : module type of Io
(** Re-export of the timeout-wrapped socket primitives (also used by
    the [Chaos] proxy). *)

module Monitor : module type of Monitor
(** Re-export of the self-healing loop (drift detection, incremental
    refit, background re-selection); configure it via {!config}'s
    [monitor] field. *)

module Durable : module type of Durable
(** Re-export of the durability codec: WAL observation records,
    canonical monitor snapshots, and checkpoint files. Configure the
    layer itself via {!config}'s [durability] field. *)

type address =
  | Unix_sock of string  (** filesystem path of a Unix-domain socket *)
  | Tcp of int           (** TCP port on 127.0.0.1; 0 = ephemeral *)

val address_to_string : address -> string

(** {1 Server} *)

(** Durability knobs (see the "Crash recovery and durability" chapter of
    the docs). When {!config}'s [durability] is armed, every [observe]
    batch is appended to a CRC-framed write-ahead log and fsynced
    {e before} the ok ack leaves — an acknowledged observation survives
    a SIGKILL. The monitor state (recent-die ring, refit moments, drift
    detectors, generation counter) is checkpointed atomically every
    [checkpoint_every] applied records and on every generation change;
    boot loads the last checkpoint and replays the WAL suffix, landing
    bit-exactly on the pre-crash state. *)
type durability = {
  wal_dir : string;
      (** WAL segments and the checkpoint live here (created if
          missing); default ["pathsel-wal"] *)
  checkpoint_every : int;
      (** journaled records between checkpoints (256): smaller = faster
          recovery, more checkpoint writes *)
  wal_segment_bytes : int;
      (** segment rotation threshold ({!Store.Wal.default_config}) *)
  wal_retain : int;
      (** sealed checkpoint-covered segments kept by pruning
          ({!Store.Wal.default_config}) *)
}

val default_durability : durability

type config = {
  max_batch : int;      (** dies accepted per predict request (4096) *)
  max_line : int;       (** request-line byte cap ({!Wire.default_max_line}) *)
  workers : int;        (** connection worker threads; 0 = sized from
                            {!Par.Pool.size} (clamped to 2..8) *)
  queue : int;          (** accepted connections awaiting a worker (64);
                            beyond it, connections are shed *)
  deadline : float;     (** per-request wall-clock budget, seconds (10) *)
  idle_timeout : float; (** silent-connection reap, seconds (60) *)
  monitor : Monitor.config option;
      (** arm the self-healing loop ([None], off, by default); requires
          [reload_from] for auto re-selection to fire *)
  durability : durability option;
      (** arm the WAL + checkpoint layer ([None], off, by default);
          requires [monitor] — the journal records the observation
          stream that feeds it *)
}

val default_config : config

type t
(** Server state: config, hot artifact snapshot, counters, stop flag. *)

val buffers_to_json : Tune.buffer array -> Wire.json
(** Wire encoding of a tunable-buffer description (the [buffers] field
    of a [tune] request) — inverse of the server's decoder. *)

val buffers_of_json :
  n_paths:int -> Wire.json -> (Tune.buffer array, string) result
(** The server's decoder for the [buffers] field: a list of
    [{"paths": [...], "levels": [{"offset_ps": .., "cost": ..}, ...]}]
    objects, validated against the artifact's path count. Exposed for
    clients (the CLI) that read the same description from a file. *)

val create : ?config:config -> ?reload_from:string -> Store.t -> t
(** Build the serving state: restores the Theorem-2 predictor and the
    robust predictor from the artifact once, up front. [reload_from]
    names the artifact path a SIGHUP re-loads.

    With [durability] armed this is also the recovery path: the WAL is
    opened (truncating any torn tail), the last checkpoint is loaded,
    the monitor is restored from it, and the WAL suffix above the
    checkpoint's watermark is replayed — sequence-numbered ingestion
    makes the replay idempotent, so a crash {e during} recovery re-lands
    on the same state. The boot generation is the checkpointed one plus
    one. A corrupt checkpoint degrades to a cold start plus full-WAL
    replay; a checkpoint whose path pool no longer matches the artifact
    is discarded with a warning. Raises [Failure] only when the WAL
    directory itself cannot be opened. *)

val maybe_checkpoint : ?force:bool -> t -> unit
(** Write a checkpoint if one is due ([checkpoint_every] applied records
    since the last, or a generation change), then prune WAL segments the
    checkpoint covers; [force] skips the due-check. No-op without
    durability. {b Monitor-thread only} (it snapshots monitor
    internals): [run] calls it after every {!monitor_step}; tests
    driving {!monitor_step} directly may call it the same way. *)

val handle : t -> string -> string
(** Process one request line into one response line (no trailing
    newline). Never raises: parse errors, bad shapes, and numerical
    failures all become ["ok":false] responses and count toward the
    error counter. A ["shutdown"] request flips the stop flag.
    Thread-safe. *)

val stopping : t -> bool

val do_reload : t -> (unit, string) result
(** Load + CRC-verify the [reload_from] artifact and atomically swap it
    in, bumping the generation; in-flight requests finish on their
    snapshot. This is the single swap path: SIGHUP requests it, the
    background re-selection calls it after {!Store.save}. [Error] when
    no reload path is configured or the artifact is rejected (the old
    artifact keeps serving either way; [reload_failures] counts it). *)

val monitor_step : t -> now:float -> unit
(** One iteration of the self-healing loop: re-anchor the monitor after
    an artifact swap, drain queued observations, update the detector
    and refit, and trigger re-selection when drift binds. [run] drives
    this from a dedicated thread; tests may drive it directly for
    deterministic control. No-op when the monitor is off. *)

val monitor_report : t -> Monitor.report option
(** Latest monitor snapshot ([None] when monitoring is off). *)

val listen_on : address -> Unix.file_descr * address * (unit -> unit)
(** Bind + listen on [address]; returns the listening descriptor, the
    bound address (the actual port for [Tcp 0]) and a cleanup thunk
    that removes the Unix socket file. Shared with the [Chaos] proxy. *)

val run :
  ?install_signals:bool ->
  ?config:config ->
  ?reload_from:string ->
  ?on_ready:(address -> unit) ->
  Store.t ->
  address ->
  unit
(** Serve until a [shutdown] request or (with [install_signals], the
    default) SIGINT/SIGTERM. In-flight requests are drained — their
    responses written — before the loop exits; the Unix socket file is
    removed on the way out. [on_ready] fires once listening, with the
    bound address (the actual port when [Tcp 0] was requested).
    SIGHUP hot reload is armed whenever [reload_from] is given, even
    with [install_signals:false]. The [stats] op surfaces the per-cause
    counters: [shed], [timeouts], [idle_closed], [overflows],
    [reloads], [reload_failures]. *)

(** {1 Client} *)

module Client : sig
  type conn

  val connect : ?retries:int -> ?timeout:float -> address -> conn
  (** Retries [ECONNREFUSED]/[ENOENT]/[EAGAIN] every 100 ms ([retries]
      times, default 50) to absorb server startup; each attempt's
      connect carries [timeout] seconds (default 5). Raises
      [Unix.Unix_error] or {!Io.Timeout} once exhausted. *)

  val close : conn -> unit

  val request : ?deadline:float -> conn -> Wire.json -> (Wire.json, string) result
  (** One round trip: print, send, read one line, parse — all within
      [deadline] seconds of wall clock (default 30). A timeout, a lost
      connection, or an unparseable response is the [Error] case; it
      never blocks forever on a dead peer. *)

  val ping : ?deadline:float -> conn -> bool

  val stats : ?deadline:float -> conn -> (Wire.json, string) result

  val predict :
    ?deadline:float ->
    conn ->
    ?robust:bool ->
    Linalg.Mat.t ->
    (Linalg.Mat.t * Wire.json, string) result
  (** Send a [dies x r] measurement batch; returns the
      [dies x (n-r)] predictions plus the full response object
      (screen/fallback counters live there). An ["ok":false] response
      is the [Error] case. *)

  val observe :
    ?deadline:float ->
    ?wafer:string ->
    conn ->
    measured:Linalg.Mat.t ->
    truth:Linalg.Mat.t ->
    (Wire.json, string) result
  (** Stream a batch of fully measured dies ([measured]: [dies x r],
      [truth]: [dies x (n-r)]) into the server's self-healing loop.
      [wafer] keys per-group drift calibration (omitted = the flat
      default group). [Ok] carries the full response: [queued]/
      [screened] counts, a per-die [die_status] list (["used"] /
      ["screened"]), and [journaled] — [true] means every used die hit
      fsynced storage before this ack left. An ["ok":false] response is
      the [Error] case; the retryable ["journal_failed"] code means the
      batch was {e not} made durable. *)

  val die_statuses : Wire.json -> string list
  (** The [die_status] field of an observe ack (empty when absent). *)

  val yield_request :
    ?samples:int ->
    ?seed:int ->
    ?meth:[ `Is | `Mc ] ->
    ?t_cons:float ->
    unit ->
    Wire.json
  (** Build a [yield] request; omitted fields take the server defaults
      (4096 samples, seed 1, importance sampling, the artifact's
      stored constraint). *)

  val tune_request :
    ?t_clk:float ->
    buffers:Tune.buffer array ->
    measured:Linalg.Mat.t ->
    unit ->
    Wire.json

  val tune :
    ?deadline:float ->
    ?t_clk:float ->
    buffers:Tune.buffer array ->
    measured:Linalg.Mat.t ->
    conn ->
    (Wire.json, string) result
  (** One [tune] round trip over a [dies x r] measurement batch. An
      infeasible die answers ["ok":false] with semantic code [65] —
      surfaced here as [Error] with the server's message; use
      {!request} directly to inspect the code. *)

  val generation : conn -> int option
  (** Artifact generation of the last ok response on this connection
      ([None] before the first). A mid-stream change — the server hot
      swapped its artifact — is reported on [stderr] when detected. *)

  val shutdown : conn -> unit
  (** Best-effort: sends the request and reads the ack; errors are
      swallowed (the server may die first). *)

  (** {2 Retry policy}

      For embedding in a tester loop: bounded attempts, exponential
      backoff with decorrelated jitter
      ([sleep ~ U(base_delay, 3 * previous sleep)], capped at
      [max_delay]), and a fresh connection per attempt. Only transport
      failures and string-coded infrastructure responses are retried —
      semantic errors (integer [code]) never are. *)

  type retry = {
    attempts : int;         (** total tries, >= 1 (5) *)
    base_delay : float;     (** backoff floor, seconds (0.05) *)
    max_delay : float;      (** backoff cap, seconds (2) *)
    connect_timeout : float;(** per-attempt connect budget, seconds (5) *)
    deadline : float;       (** per-attempt request budget, seconds (30) *)
  }

  val default_retry : retry

  val request_with_retry :
    ?retry:retry -> ?rng:Rng.t -> address -> Wire.json -> (Wire.json, string) result
  (** The final attempt's outcome is returned as-is (including a
      semantic ["ok":false] response as [Ok]). [rng] drives the jitter;
      the default is a fixed seed, so pass one for cross-process
      decorrelation. *)

  val predict_with_retry :
    ?retry:retry ->
    ?rng:Rng.t ->
    address ->
    ?robust:bool ->
    Linalg.Mat.t ->
    (Linalg.Mat.t * Wire.json, string) result
  (** {!predict} through {!request_with_retry}. *)
end
