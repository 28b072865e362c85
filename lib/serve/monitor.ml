(* Single-writer state machine: everything below the Atomics is touched
   only by the monitor thread ([step]/[swapped]); workers talk to it
   exclusively through [submit] (CAS push) and [read] (snapshot
   get). Nothing here may block — see the
   no-blocking-in-monitor lint rule. *)

type config = {
  calibrate : int;
  drift : Stats.Drift.config;
  max_groups : int;
  min_dies : int;
  buffer : int;
  cooldown : float;
  max_backoff : float;
  pending_cap : int;
}

let default_config =
  {
    calibrate = 32;
    drift = Stats.Drift.default_config;
    max_groups = 64;
    min_dies = 64;
    buffer = 256;
    cooldown = 5.0;
    max_backoff = 60.0;
    pending_cap = 4096;
  }

type obs = {
  measured : float array;
  truth : float array;
  full : float array;
  resid : float;
  wafer : string;
}

type report = {
  observed : int;
  skipped : int;
  dropped : int;
  calibrating : bool;
  state : Stats.Drift.state;
  cusum : float;
  var_ratio : float;
  quarantined : bool;
  groups : int;
  group_overflow : int;
  monitor_errors : int;
  reselects : int;
  reselect_failures : int;
  last_reselect_ms : float;
  backoff_s : float;
  last_error : string;
}

let initial_report =
  {
    observed = 0;
    skipped = 0;
    dropped = 0;
    calibrating = true;
    state = Stats.Drift.Healthy;
    cusum = 0.0;
    var_ratio = Float.nan;
    quarantined = false;
    groups = 0;
    group_overflow = 0;
    monitor_errors = 0;
    reselects = 0;
    reselect_failures = 0;
    last_reselect_ms = Float.nan;
    backoff_s = 0.0;
    last_error = "";
  }

type t = {
  cfg : config;
  n_paths : int;
  reselect : Linalg.Mat.t -> (int * int * float, string) result;
  (* worker-facing; each pending entry carries its WAL sequence number
     (0 when durability is off) *)
  pending : (int * obs) list Atomic.t;
  pending_n : int Atomic.t;
  dropped : int Atomic.t;
  published : report Atomic.t;
  (* monitor-thread state *)
  mutable r : int;
  mutable m : int;
  mutable grouped : Stats.Drift.Grouped.t;
      (* per-wafer detectors, lazily keyed; mutable only for [restore] *)
  ring : float array array; (* recent full dies, circular *)
  mutable ring_n : int; (* total dies ever accepted into the ring *)
  mutable observed : int;
  mutable skipped : int;
  mutable errors : int;
  mutable reselects : int;
  mutable reselect_failures : int;
  mutable last_reselect_ms : float;
  mutable backoff : float;
  mutable next_attempt : float;
  mutable self_swap : bool;
      (* the next [swapped] is our own re-selection landing, not an
         operator reload: keep the post-reselect cooldown *)
  mutable last_error : string;
  mutable applied_seq : int;
      (* highest WAL sequence number folded into this state; 0 when
         durability is off. Recovery replays only records above it,
         and a journaled record that arrives twice (checkpoint taken
         after it, then replayed) is ignored — replay is idempotent. *)
}

let check_config cfg =
  (* the detector itself is only built once calibration completes, on
     the monitor thread — validating its config here instead makes bad
     CLI thresholds (e.g. --drift-warn above --drift-threshold) fail at
     startup rather than kill the monitor mid-stream *)
  Stats.Drift.check_config cfg.drift;
  if cfg.calibrate < 2 then invalid_arg "Monitor: calibrate < 2";
  if cfg.max_groups < 1 then invalid_arg "Monitor: max_groups < 1";
  if cfg.min_dies < 1 then invalid_arg "Monitor: min_dies < 1";
  if cfg.buffer < cfg.min_dies then invalid_arg "Monitor: buffer < min_dies";
  if not (cfg.cooldown > 0.0) then invalid_arg "Monitor: cooldown must be > 0";
  if cfg.max_backoff < cfg.cooldown then
    invalid_arg "Monitor: max_backoff < cooldown";
  if cfg.pending_cap < 1 then invalid_arg "Monitor: pending_cap < 1"

let create ?(config = default_config) ~n_paths ~r ~m ~reselect () =
  check_config config;
  if r < 1 || m < 1 || r + m <> n_paths then
    invalid_arg "Monitor.create: need r >= 1, m >= 1, r + m = n_paths";
  {
    cfg = config;
    n_paths;
    reselect;
    pending = Atomic.make [];
    pending_n = Atomic.make 0;
    dropped = Atomic.make 0;
    published = Atomic.make initial_report;
    r;
    m;
    grouped =
      Stats.Drift.Grouped.create ~config:config.drift
        ~calibrate:config.calibrate ~max_groups:config.max_groups ();
    ring = Array.make config.buffer [||];
    ring_n = 0;
    observed = 0;
    skipped = 0;
    errors = 0;
    reselects = 0;
    reselect_failures = 0;
    last_reselect_ms = Float.nan;
    backoff = 0.0;
    next_attempt = 0.0;
    self_swap = false;
    last_error = "";
    applied_seq = 0;
  }

let n_paths t = t.n_paths

let submit ?(seq = 0) t o =
  (* claim a slot first (fetch-and-add, rolled back on overflow) so
     concurrent submits cannot all pass a check-then-increment and blow
     past the cap together. Journaled records (seq > 0) bypass the shed
     cap: their producer is already throttled by the WAL fsync, and
     dropping a record the server acked as journaled would poison the
     checkpoint watermark — a later sequence number would mark the
     dropped one as applied, and recovery would never replay it. *)
  let admitted =
    if seq > 0 then begin
      ignore (Atomic.fetch_and_add t.pending_n 1);
      true
    end
    else if Atomic.fetch_and_add t.pending_n 1 >= t.cfg.pending_cap then begin
      ignore (Atomic.fetch_and_add t.pending_n (-1));
      Atomic.incr t.dropped;
      false
    end
    else true
  in
  if admitted then begin
    let rec push () =
      let cur = Atomic.get t.pending in
      if not (Atomic.compare_and_set t.pending cur ((seq, o) :: cur)) then
        push ()
    in
    push ()
  end

let read t = Atomic.get t.published

let publish t =
  let g = t.grouped in
  Atomic.set t.published
    {
      observed = t.observed;
      skipped = t.skipped;
      dropped = Atomic.get t.dropped;
      calibrating = Stats.Drift.Grouped.calibrating g;
      state = Stats.Drift.Grouped.state g;
      cusum = Stats.Drift.Grouped.cusum g;
      var_ratio =
        (match Stats.Drift.Grouped.variance_ratio g with
         | Some v -> v
         | None -> Float.nan);
      quarantined = Stats.Drift.Grouped.quarantined g;
      groups = Stats.Drift.Grouped.group_count g;
      group_overflow = Stats.Drift.Grouped.overflowed g;
      monitor_errors = t.errors;
      reselects = t.reselects;
      reselect_failures = t.reselect_failures;
      last_reselect_ms = t.last_reselect_ms;
      backoff_s = t.backoff;
      last_error = t.last_error;
    }

(* Restart the detector against a fresh artifact split; the ring of
   full dies is artifact-independent and survives. Re-selection pacing
   (backoff/next_attempt) is deliberately untouched: clearing it here
   would erase the post-reselect cooldown the moment our own swap lands
   back through [swapped]. *)
let restart t ~r ~m =
  if r < 1 || m < 1 || r + m <> t.n_paths then
    invalid_arg "Monitor: swapped artifact has an incompatible path split";
  t.r <- r;
  t.m <- m;
  Stats.Drift.Grouped.restart t.grouped

let swapped t ~r ~m =
  restart t ~r ~m;
  (* an operator swap is a fresh start — clear re-selection pacing; our
     own reselect's swap keeps the cooldown set when it succeeded *)
  if not t.self_swap then begin
    t.backoff <- 0.0;
    t.next_attempt <- 0.0
  end;
  t.self_swap <- false;
  publish t

let note_error t msg =
  t.errors <- t.errors + 1;
  t.last_error <- msg;
  publish t

let feed_detector t o =
  (* per-wafer calibration + detection; flat streams (no wafer id) all
     land in the default group, which behaves like the old single
     detector *)
  ignore (Stats.Drift.Grouped.observe t.grouped ~group:o.wafer o.resid)

let ingest t seq o =
  if seq > 0 && seq <= t.applied_seq then
    (* already folded in before the crash that triggered this replay *)
    ()
  else begin
    (if
       Array.length o.measured <> t.r
       || Array.length o.truth <> t.m
       || Array.length o.full <> t.n_paths
     then t.skipped <- t.skipped + 1
     else if
       not
         (Array.for_all Float.is_finite o.measured
         && Array.for_all Float.is_finite o.truth)
     then begin
       (* non-finite die: kept out of the ring; the residual still goes
          to the detector, whose quarantine logic owns pathological
          input *)
       t.skipped <- t.skipped + 1;
       feed_detector t o
     end
     else begin
       t.observed <- t.observed + 1;
       t.ring.(t.ring_n mod t.cfg.buffer) <- Array.copy o.full;
       t.ring_n <- t.ring_n + 1;
       feed_detector t o
     end);
    if seq > t.applied_seq then t.applied_seq <- seq
  end

let recent_dies t =
  let k = Int.min t.ring_n t.cfg.buffer in
  let base = t.ring_n - k in
  Linalg.Mat.init k t.n_paths (fun i j ->
      t.ring.((base + i) mod t.cfg.buffer).(j))

let maybe_reselect t ~now =
  let drifted = Stats.Drift.Grouped.drifted_active t.grouped in
  if
    drifted
    && Int.min t.ring_n t.cfg.buffer >= t.cfg.min_dies
    && now >= t.next_attempt
  then begin
    match t.reselect (recent_dies t) with
    | Ok (r, m, ms) ->
      t.reselects <- t.reselects + 1;
      t.last_reselect_ms <- ms;
      t.last_error <- "";
      t.self_swap <- true;
      restart t ~r ~m;
      t.backoff <- 0.0;
      t.next_attempt <- now +. t.cfg.cooldown
    | Error msg ->
      t.reselect_failures <- t.reselect_failures + 1;
      t.last_error <- msg;
      t.backoff <-
        (if t.backoff > 0.0 then Float.min t.cfg.max_backoff (t.backoff *. 2.0)
         else t.cfg.cooldown);
      t.next_attempt <- now +. t.backoff
  end

let step t ~now =
  let batch = List.rev (Atomic.exchange t.pending []) in
  (* release exactly the slots we drained: a submit that claimed its
     slot but has not pushed yet keeps it, so zeroing here would leak
     its count (and under-admit until the next drain) *)
  (match batch with
   | [] -> ()
   | _ :: _ ->
     ignore (Atomic.fetch_and_add t.pending_n (-(List.length batch))));
  List.iter (fun (seq, o) -> ingest t seq o) batch;
  maybe_reselect t ~now;
  publish t

(* ------------------------------------------------------------------ *)
(* Durability: the monitor-thread state is snapshotted into an inert,
   canonical record (ring rows in chronological order, group table
   sorted) that the serving layer's checkpoint writer serializes with
   the artifact codec. [restore] + [replay] over the WAL suffix land
   bit-exactly on the state an uninterrupted run would hold — the
   recovery property in test/test_monitor.ml. *)

type snapshot = {
  snap_r : int;
  snap_m : int;
  snap_applied_seq : int;
  snap_ring : float array array;
      (* the live window, oldest first: min(ring_n, buffer) rows *)
  snap_ring_n : int;
  snap_observed : int;
  snap_skipped : int;
  snap_dropped : int;
  snap_errors : int;
  snap_reselects : int;
  snap_reselect_failures : int;
  snap_last_reselect_ms : float;
  snap_backoff : float;
  snap_next_attempt : float;
  snap_self_swap : bool;
  snap_last_error : string;
  snap_drift : Stats.Drift.Grouped.group_snapshot;
}

let snapshot t =
  let k = Int.min t.ring_n t.cfg.buffer in
  let base = t.ring_n - k in
  {
    snap_r = t.r;
    snap_m = t.m;
    snap_applied_seq = t.applied_seq;
    snap_ring =
      Array.init k (fun i -> Array.copy t.ring.((base + i) mod t.cfg.buffer));
    snap_ring_n = t.ring_n;
    snap_observed = t.observed;
    snap_skipped = t.skipped;
    snap_dropped = Atomic.get t.dropped;
    snap_errors = t.errors;
    snap_reselects = t.reselects;
    snap_reselect_failures = t.reselect_failures;
    snap_last_reselect_ms = t.last_reselect_ms;
    snap_backoff = t.backoff;
    snap_next_attempt = t.next_attempt;
    snap_self_swap = t.self_swap;
    snap_last_error = t.last_error;
    snap_drift = Stats.Drift.Grouped.snapshot t.grouped;
  }

let restore ?(config = default_config) ~n_paths ~reselect s =
  let t = create ~config ~n_paths ~r:s.snap_r ~m:s.snap_m ~reselect () in
  (* re-inserting the snapshot rows in chronological order reproduces
     the raw circular layout exactly when the buffer size is unchanged,
     and degrades gracefully (keeping the newest rows) when an operator
     shrank or grew it between runs *)
  let k = Array.length s.snap_ring in
  if k > s.snap_ring_n then
    invalid_arg "Monitor.restore: ring larger than its own die count";
  let kept = Int.min k config.buffer in
  for i = 0 to kept - 1 do
    t.ring.((s.snap_ring_n - kept + i) mod config.buffer) <-
      Array.copy s.snap_ring.(k - kept + i)
  done;
  t.ring_n <- s.snap_ring_n;
  t.applied_seq <- s.snap_applied_seq;
  t.observed <- s.snap_observed;
  t.skipped <- s.snap_skipped;
  Atomic.set t.dropped s.snap_dropped;
  t.errors <- s.snap_errors;
  t.reselects <- s.snap_reselects;
  t.reselect_failures <- s.snap_reselect_failures;
  t.last_reselect_ms <- s.snap_last_reselect_ms;
  t.backoff <- s.snap_backoff;
  t.next_attempt <- s.snap_next_attempt;
  t.self_swap <- s.snap_self_swap;
  t.last_error <- s.snap_last_error;
  t.grouped <- Stats.Drift.Grouped.restore s.snap_drift;
  publish t;
  t

let applied_seq t = t.applied_seq

let replay t records =
  List.iter (fun (seq, o) -> ingest t seq o) records;
  publish t
