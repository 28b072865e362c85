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
      (* per-wafer detectors, lazily keyed; mutable only for [decode] *)
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
(* Durability: the checkpoint payload is the monitor-thread state read
   in place, in a fixed positional order on the artifact codec: the
   ring's live window oldest first, the wafer groups sorted by id. The
   encoding is canonical, so equal states give equal bytes, and
   [decode] accepts only bytes [encode] could have written. [decode] +
   [replay] over the WAL suffix land bit-exactly on the state an
   uninterrupted run would hold — the recovery property in
   test/test_monitor.ml. *)

module W = Store.Codec.W
module R = Store.Codec.R

let malformed msg = raise (Store.Codec.Malformed msg)
let w_bool w b = W.u32 w (if b then 1 else 0)

let r_bool rd =
  match R.u32 rd with
  | 0 -> false
  | 1 -> true
  | _ -> malformed "boolean field out of range"

let w_state w (s : Stats.Drift.state) =
  W.u32 w (match s with Healthy -> 0 | Warning -> 1 | Drifted -> 2)

let r_state rd : Stats.Drift.state =
  match R.u32 rd with
  | 0 -> Healthy
  | 1 -> Warning
  | 2 -> Drifted
  | _ -> malformed "drift state out of range"

let w_drift_config w (c : Stats.Drift.config) =
  W.f64 w c.slack;
  W.f64 w c.warn;
  W.f64 w c.drift;
  W.int w c.window;
  W.f64 w c.var_ratio;
  W.int w c.max_consecutive_bad

let r_drift_config rd : Stats.Drift.config =
  let slack = R.f64 rd in
  let warn = R.f64 rd in
  let drift = R.f64 rd in
  let window = R.int rd in
  let var_ratio = R.f64 rd in
  let max_consecutive_bad = R.int rd in
  let c = { Stats.Drift.slack; warn; drift; window; var_ratio; max_consecutive_bad } in
  Stats.Drift.check_config c;
  c

let w_detector w (d : Stats.Drift.t) =
  w_drift_config w d.config;
  List.iter (W.f64 w) [ d.mean0; d.sigma0; d.s_hi; d.s_lo ];
  List.iter (W.int w) [ d.n; d.bad; d.consecutive_bad ];
  w_bool w d.quarantine;
  W.float_array w d.win;
  W.int w d.win_n;
  w_state w d.state

let r_detector rd : Stats.Drift.t =
  let config = r_drift_config rd in
  let mean0 = R.f64 rd in
  let sigma0 = R.f64 rd in
  let s_hi = R.f64 rd in
  let s_lo = R.f64 rd in
  let n = R.int rd in
  let bad = R.int rd in
  let consecutive_bad = R.int rd in
  let quarantine = r_bool rd in
  let win = R.float_array rd in
  if Array.length win <> config.window then malformed "drift window length";
  let win_n = R.int rd in
  let state = r_state rd in
  { config; mean0; sigma0; s_hi; s_lo; n; bad; consecutive_bad; quarantine;
    win; win_n; state }

let w_grouped w (g : Stats.Drift.Grouped.t) =
  w_drift_config w g.cfg;
  List.iter (W.int w) [ g.calibrate; g.max_groups; g.overflow ];
  let entries =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun id e acc -> (id, e) :: acc) g.groups [])
  in
  W.int w (List.length entries);
  List.iter
    (fun (id, (e : Stats.Drift.Grouped.entry)) ->
      W.str w id;
      W.float_array w e.calib;
      W.int w e.calib_n;
      match e.det with
      | None -> W.u32 w 0
      | Some d ->
        W.u32 w 1;
        w_detector w d)
    entries

(* A table rebuilt under the checkpoint's own detector config: group
   ids strictly ascending (one table, one encoding), the default group
   present, and each group either calibrating with fewer than
   [calibrate] residuals or calibrated with all of them. The entries
   are read before [create] allocates the default group's buffer, so
   a [calibrate] no buffer in the payload matches is rejected first. *)
let r_grouped rd =
  let config = r_drift_config rd in
  let calibrate = R.int rd in
  let max_groups = R.int rd in
  let overflow = R.int rd in
  let n = R.int rd in
  if n > 1 lsl 20 then malformed "group count out of range";
  let entries =
    List.init n (fun _ ->
        let id = R.str rd in
        let calib = R.float_array rd in
        let calib_n = R.int rd in
        let det =
          match R.u32 rd with
          | 0 -> None
          | 1 -> Some (r_detector rd)
          | _ -> malformed "option tag out of range"
        in
        if
          Array.length calib <> calibrate
          || calib_n > calibrate
          || (calib_n = calibrate) <> Option.is_some det
        then malformed "calibration buffer";
        (id, { Stats.Drift.Grouped.calib; calib_n; det }))
  in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  if not (ascending entries) then malformed "group ids out of order";
  if not (List.mem_assoc "" entries) then malformed "default group missing";
  let g = Stats.Drift.Grouped.create ~config ~calibrate ~max_groups () in
  g.overflow <- overflow;
  List.iter (fun (id, e) -> Hashtbl.replace g.groups id e) entries;
  g

let encode w t =
  let k = Int.min t.ring_n t.cfg.buffer in
  List.iter (W.int w) [ t.r; t.m; t.applied_seq; k ];
  for i = t.ring_n - k to t.ring_n - 1 do
    W.float_array w t.ring.(i mod t.cfg.buffer)
  done;
  List.iter (W.int w)
    [ t.ring_n; t.observed; t.skipped; Atomic.get t.dropped; t.errors;
      t.reselects; t.reselect_failures ];
  List.iter (W.f64 w) [ t.last_reselect_ms; t.backoff; t.next_attempt ];
  w_bool w t.self_swap;
  W.str w t.last_error;
  w_grouped w t.grouped

let decode ?(config = default_config) ~reselect rd =
  let r = R.int rd in
  let m = R.int rd in
  let t = create ~config ~n_paths:(r + m) ~r ~m ~reselect () in
  t.applied_seq <- R.int rd;
  let k = R.int rd in
  if k > 1 lsl 24 then malformed "ring size out of range";
  let rows = Array.init k (fun _ -> R.float_array rd) in
  if Array.exists (fun row -> Array.length row <> t.n_paths) rows then
    malformed "ring row length";
  let ring_n = R.int rd in
  if k > ring_n then malformed "ring larger than its own die count";
  (* the newest rows go back in chronological order: with the buffer
     that wrote them the circular layout is the one encoded; a smaller
     buffer keeps the newest; a larger one that the rows cannot fill
     counts only the rows it holds, so no slot of its window is empty *)
  let kept = Int.min k config.buffer in
  t.ring_n <- (if kept < Int.min ring_n config.buffer then kept else ring_n);
  for i = 0 to kept - 1 do
    t.ring.((t.ring_n - kept + i) mod config.buffer) <- rows.(k - kept + i)
  done;
  t.observed <- R.int rd;
  t.skipped <- R.int rd;
  Atomic.set t.dropped (R.int rd);
  t.errors <- R.int rd;
  t.reselects <- R.int rd;
  t.reselect_failures <- R.int rd;
  t.last_reselect_ms <- R.f64 rd;
  t.backoff <- R.f64 rd;
  t.next_attempt <- R.f64 rd;
  t.self_swap <- r_bool rd;
  t.last_error <- R.str rd;
  t.grouped <- r_grouped rd;
  publish t;
  t

let split t = (t.r, t.m)

let applied_seq t = t.applied_seq

let replay t records =
  List.iter (fun (seq, o) -> ingest t seq o) records;
  publish t
