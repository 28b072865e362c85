module Wire = Wire
module Io = Io
module Monitor = Monitor
module Durable = Durable

type address = Unix_sock of string | Tcp of int

let address_to_string = function
  | Unix_sock path -> path
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

(* ------------------------------------------------------------------ *)
(* Configuration *)

(* durability: journal every accepted observe to a WAL before the ack
   leaves, checkpoint the monitor state periodically, and recover
   checkpoint + WAL suffix at boot *)
type durability = {
  wal_dir : string;          (* WAL segments + checkpoint live here *)
  checkpoint_every : int;    (* journaled records between checkpoints *)
  wal_segment_bytes : int;   (* segment rotation threshold *)
  wal_retain : int;          (* sealed covered segments kept by prune *)
}

let default_durability =
  {
    wal_dir = "pathsel-wal";
    checkpoint_every = 256;
    wal_segment_bytes = Store.Wal.default_config.Store.Wal.segment_bytes;
    wal_retain = Store.Wal.default_config.Store.Wal.retain_segments;
  }

type config = {
  max_batch : int;      (* dies accepted per predict request *)
  max_line : int;       (* request line byte cap (Wire.Framer) *)
  workers : int;        (* connection worker threads; 0 = from the pool size *)
  queue : int;          (* accepted connections waiting for a worker *)
  deadline : float;     (* per-request wall-clock budget, seconds *)
  idle_timeout : float; (* silent-connection reap, seconds *)
  monitor : Monitor.config option; (* arm the self-healing loop *)
  durability : durability option;  (* arm the WAL + checkpoint layer *)
}

let default_config =
  {
    max_batch = 4096;
    max_line = Wire.default_max_line;
    workers = 0;
    queue = 64;
    deadline = 10.0;
    idle_timeout = 60.0;
    monitor = None;
    durability = None;
  }

(* I/O concurrency rides cheap systhreads sized from the compute pool:
   blocked reads release the runtime lock, and the dense kernels behind
   each request still run on the Par.Pool domains *)
let resolved_workers cfg =
  if cfg.workers > 0 then cfg.workers
  else Int.max 2 (Int.min 8 (Par.Pool.size ()))

let check_config cfg =
  if cfg.max_batch < 1 then invalid_arg "Serve: max_batch < 1";
  if cfg.max_line < 64 then invalid_arg "Serve: max_line < 64";
  if cfg.workers < 0 then invalid_arg "Serve: workers < 0";
  if cfg.queue < 1 then invalid_arg "Serve: queue < 1";
  if not (cfg.deadline > 0.0) then invalid_arg "Serve: deadline must be > 0";
  if not (cfg.idle_timeout > 0.0) then invalid_arg "Serve: idle_timeout must be > 0";
  match cfg.durability with
  | None -> ()
  | Some d ->
    (* the WAL journals observations; without a monitor there is nothing
       to journal or recover, so an armed-but-pointless combination is a
       config error, not a silent no-op *)
    if cfg.monitor = None then
      invalid_arg "Serve: durability requires the monitor to be armed";
    if d.wal_dir = "" then invalid_arg "Serve: wal_dir is empty";
    if d.checkpoint_every < 1 then invalid_arg "Serve: checkpoint_every < 1";
    if d.wal_segment_bytes < 1024 then
      invalid_arg "Serve: wal_segment_bytes < 1024";
    if d.wal_retain < 1 then invalid_arg "Serve: wal_retain < 1"

(* ------------------------------------------------------------------ *)
(* Server state *)

let latency_window = 4096

type counters = {
  mutable requests : int;
  mutable predicted : int;        (* dies *)
  mutable yields : int;           (* yield estimates served *)
  mutable tuned : int;            (* dies configured by the tune op *)
  mutable tune_infeasible : int;  (* tune requests refused: timing unmet *)
  mutable errors : int;
  mutable shed : int;             (* connections refused with "overloaded" *)
  mutable timeouts : int;         (* request deadlines expired (read or write) *)
  mutable idle_closed : int;      (* silent connections reaped *)
  mutable overflows : int;        (* request lines past the byte cap *)
  mutable reloads : int;          (* successful SIGHUP artifact swaps *)
  mutable reload_failures : int;  (* SIGHUP loads rejected (bad artifact) *)
  lat : float array;              (* ms, ring buffer *)
  mutable lat_n : int;            (* total latencies ever recorded *)
}

(* everything a request needs from the artifact, swapped atomically on
   reload: a request snapshots this once and finishes on its snapshot.
   [gen] counts swaps, starting at 1, and rides every ok response so
   clients can correlate predictions with the model that made them *)
type hot = {
  artifact : Store.t;
  predictor : Core.Predictor.t;
  robust : Core.Robust.t;
  n_rep : int;
  gen : int;
}

(* runtime state of the durability layer. The journal mutex [jm] is the
   load-bearing piece: it serializes WAL append + monitor submit so the
   monitor ingests observations in strictly increasing sequence order —
   without it a checkpoint's applied_seq could cover an acked record the
   monitor had not ingested yet, and recovery would skip it. The
   checkpoint watermarks are Atomics because the monitor thread writes
   them while stats handlers read them. *)
type dur_state = {
  dur_cfg : durability;
  wal : Store.Wal.t;
  ckpt_path : string;
  jm : Mutex.t;
  ckpt_seq : int Atomic.t;  (* applied_seq in the last checkpoint *)
  ckpt_gen : int Atomic.t;  (* generation in the last checkpoint *)
}

let checkpoint_file = "checkpoint.psc"

type t = {
  cfg : config;
  hot : hot Atomic.t;
  dur : dur_state option;
  reload_from : string option;
  reload_requested : bool Atomic.t;
  stop_flag : bool Atomic.t;
  counters : counters;
  cm : Mutex.t;  (* guards [counters]; workers update them concurrently *)
  started : float;
  mon : Monitor.t option Atomic.t;
      (* written once at create, cleared (only) by the monitor thread if
         an incompatible artifact is swapped in; handlers read it from
         their own threads, so the cell must be Atomic *)
  mon_resync : bool Atomic.t;
      (* an artifact swap happened: the monitor thread must re-anchor
         its detector before the next step (it alone may touch
         monitor internals, so the swap path only raises this flag) *)
}

let hot_of_artifact ?(gen = 1) artifact =
  (* the loaded artifact's predictor already holds the dense weight
     matrix and the Gram/cross blocks every request reuses *)
  let predictor = Store.predictor artifact in
  {
    artifact;
    predictor;
    robust = Store.robust artifact;
    n_rep = Array.length (Core.Predictor.rep_indices predictor);
    gen;
  }

let create_raw ?(config = default_config) ?(gen = 1) ?dur ?reload_from artifact =
  check_config config;
  {
    cfg = config;
    hot = Atomic.make (hot_of_artifact ~gen artifact);
    dur;
    reload_from;
    reload_requested = Atomic.make false;
    stop_flag = Atomic.make false;
    counters =
      {
        requests = 0;
        predicted = 0;
        yields = 0;
        tuned = 0;
        tune_infeasible = 0;
        errors = 0;
        shed = 0;
        timeouts = 0;
        idle_closed = 0;
        overflows = 0;
        reloads = 0;
        reload_failures = 0;
        lat = Array.make latency_window 0.0;
        lat_n = 0;
      };
    cm = Mutex.create ();
    started = Unix.gettimeofday ();
    mon = Atomic.make None;
    mon_resync = Atomic.make false;
  }

(* counter updates never raise, so a plain lock/unlock pair is safe.
   The analyzer flags the lock as monitor-reachable (reselect ->
   do_reload -> tick): that is by design — [t.cm] guards only the
   counters record, the critical section is a handful of field writes
   and is never held across I/O, so the monitor thread cannot stall on
   a request here. *)
let tick t f =
  (* lint: allow-next monitor-blocking *)
  Mutex.lock t.cm;
  f t.counters;
  Mutex.unlock t.cm

(* ------------------------------------------------------------------ *)
(* Reload and background re-selection *)

let do_reload t =
  match t.reload_from with
  | None -> Error "no reload path configured"
  | Some path ->
    (* load + CRC-verify off to the side; only a good artifact is
       swapped in, and in-flight requests finish on their snapshot *)
    (match Store.load path with
     | Ok artifact ->
       (* compare-and-set retry: a SIGHUP reload on the main loop can
          race the monitor thread's auto-reselect swap, and a plain
          read-modify-write could mint duplicate generations or lose a
          swap — the gen bump must be atomic for the client's
          mid-stream generation-change warning to mean anything *)
       let rec swap () =
         let cur = Atomic.get t.hot in
         if
           not
             (Atomic.compare_and_set t.hot cur
                (hot_of_artifact ~gen:(cur.gen + 1) artifact))
         then swap ()
       in
       swap ();
       (* monitor internals belong to the monitor thread; the swap path
          only raises a flag for it to re-anchor on its next step *)
       Atomic.set t.mon_resync true;
       (* both the SIGHUP path (serving side) and the monitor's
          auto-reselect write these counters, but always under [t.cm]
          via [tick]; the race rule does not model lock-guarded state *)
       (* lint: allow-next shared-mutable-race *)
       tick t (fun c -> c.reloads <- c.reloads + 1);
       Ok ()
     | Error e ->
       (* lint: allow-next shared-mutable-race *)
       tick t (fun c -> c.reload_failures <- c.reload_failures + 1);
       Error (Core.Errors.to_string e))

(* strip a previous provenance suffix so fingerprints don't snowball
   across repeated re-selections *)
let fingerprint_base fp =
  let marker = " [reselect" in
  let lm = String.length marker in
  let n = String.length fp in
  let rec find i =
    if i + lm > n then n
    else if String.sub fp i lm = marker then i
    else find (i + 1)
  in
  String.sub fp 0 (find 0)

(* The monitor's reselect callback: rebuild the variation model
   empirically from recent fully measured dies, re-run the paper's
   selection at the artifact's stored eps/t_cons, persist crash-safely
   with Store.save, and swap through the same CRC-verified reload path
   SIGHUP uses. Runs on the monitor thread, off the hot path; any
   failure leaves the old artifact serving. *)
let reselect_from_recent t recent =
  match t.reload_from with
  | None ->
    Error "auto-reselect needs a reload path (start the server with reload_from)"
  | Some path ->
    let t0 = Unix.gettimeofday () in
    let n_dies, n_paths = Linalg.Mat.dims recent in
    if n_dies < 2 then Error "too few recent dies to re-select from"
    else begin
      let hot = Atomic.get t.hot in
      let art = hot.artifact in
      match
        Core.Errors.catch (fun () ->
            (* empirical nominal + centered/scaled die samples as A:
               the sample covariance of the recent dies is A A^T, which
               is everything Select/Predictor/Robust consume *)
            let mu =
              Array.init n_paths (fun j ->
                  let s = ref 0.0 in
                  for i = 0 to n_dies - 1 do
                    s := !s +. Linalg.Mat.get recent i j
                  done;
                  !s /. float_of_int n_dies)
            in
            let scale = 1.0 /. sqrt (float_of_int (n_dies - 1)) in
            let a =
              Linalg.Mat.init n_paths n_dies (fun j i ->
                  (Linalg.Mat.get recent i j -. mu.(j)) *. scale)
            in
            let sel =
              Core.Select.approximate ~a ~mu ~eps:art.Store.eps
                ~t_cons:art.Store.t_cons ()
            in
            let fingerprint =
              Printf.sprintf "%s [reselect gen=%d dies=%d]"
                (fingerprint_base art.Store.fingerprint)
                (hot.gen + 1) n_dies
            in
            Store.of_selection ~fingerprint ~kappa:art.Store.kappa
              ~n_segments:art.Store.n_segments ~t_cons:art.Store.t_cons
              ~eps:art.Store.eps ~a ~mu sel)
      with
      | Error e -> Error ("re-selection failed: " ^ Core.Errors.to_string e)
      | Ok artifact' ->
        (match Store.save path artifact' with
         | Error e -> Error ("artifact save failed: " ^ Core.Errors.to_string e)
         | Ok () ->
           (match do_reload t with
            | Error msg -> Error ("swap failed: " ^ msg)
            | Ok () ->
              let hot' = Atomic.get t.hot in
              Ok
                ( hot'.n_rep,
                  hot'.artifact.Store.n_paths - hot'.n_rep,
                  (Unix.gettimeofday () -. t0) *. 1000.0 )))
    end

let create ?(config = default_config) ?reload_from artifact =
  check_config config;
  (* durability prologue: open (and crash-recover) the WAL and read the
     last checkpoint's generation before the serving state is built,
     because the boot generation is derived from it. Every checkpoint
     version writes the generation first, so an intact frame names it
     even when its monitor state is then rejected. *)
  let dur, last_gen =
    match config.durability with
    | None -> (None, None)
    | Some d ->
      let wal =
        match
          Store.Wal.open_
            ~config:
              {
                Store.Wal.segment_bytes = d.wal_segment_bytes;
                retain_segments = d.wal_retain;
              }
            d.wal_dir
        with
        | Ok w -> w
        | Error e ->
          Core.Errors.raise_error
            (Core.Errors.Io
               {
                 file = d.wal_dir;
                 msg = "Serve: cannot open WAL: " ^ Core.Errors.to_string e;
               })
      in
      let ckpt_path = Filename.concat d.wal_dir checkpoint_file in
      let last_gen = Durable.checkpoint_generation ckpt_path in
      ( Some
          {
            dur_cfg = d;
            wal;
            ckpt_path;
            jm = Mutex.create ();
            ckpt_seq = Atomic.make 0;
            ckpt_gen = Atomic.make (Option.value last_gen ~default:0);
          },
        last_gen )
  in
  (* every restart bumps the generation past the checkpointed one, so a
     client watching [gen] sees a recovery as the model swap it is *)
  let gen = match last_gen with Some g -> g + 1 | None -> 1 in
  let t = create_raw ~config ~gen ?dur ?reload_from artifact in
  (match config.monitor with
   | None -> ()
   | Some mc ->
     let hot = Atomic.get t.hot in
     let n_paths = hot.artifact.Store.n_paths in
     let r = hot.n_rep in
     let m = n_paths - r in
     let reselect recent = reselect_from_recent t recent in
     let fresh () = Monitor.create ~config:mc ~n_paths ~r ~m ~reselect () in
     let mon =
       match t.dur with
       | None -> fresh ()
       | Some dur ->
         (match Durable.load_checkpoint ~config:mc ~reselect dur.ckpt_path with
          | Ok None -> fresh ()
          | Error e ->
            (* an unusable checkpoint is recoverable: cold-start the
               monitor and replay the whole journal instead *)
            Printf.eprintf
              "pathsel serve: checkpoint %s unreadable (%s); cold start + \
               full WAL replay, %s\n%!"
              dur.ckpt_path (Core.Errors.to_string e)
              (match last_gen with
               | Some g -> Printf.sprintf "generation continues after %d" g
               | None -> "generation restarts at 1");
            fresh ()
          | Ok (Some (_, mon)) when Monitor.n_paths mon <> n_paths ->
            Printf.eprintf
              "pathsel serve: checkpointed path pool (%d) does not match \
               the artifact (%d paths); discarding monitor state\n%!"
              (Monitor.n_paths mon) n_paths;
            fresh ()
          | Ok (Some (_, mon)) ->
            Atomic.set dur.ckpt_seq (Monitor.applied_seq mon);
            let ckpt_r, _ = Monitor.split mon in
            if ckpt_r <> r then begin
              (* an operator swapped in an artifact with a different
                 split while the server was down: the ring survives,
                 the detector re-anchors (reload semantics) *)
              Printf.eprintf
                "pathsel serve: artifact split changed offline (r=%d -> \
                 %d); re-anchoring the detector\n%!"
                ckpt_r r;
              Monitor.swapped mon ~r ~m
            end;
            mon)
     in
     (* replay the WAL suffix — every record acked after the checkpoint
        was taken. Ingestion is idempotent over sequence numbers, so a
        record covered by both the checkpoint and the journal is
        skipped, and a second crash during replay re-lands on the same
        state. *)
     (match t.dur with
      | None -> ()
      | Some dur ->
        let from_seq = Monitor.applied_seq mon + 1 in
        (match
           Store.Wal.fold ~from_seq dur.dur_cfg.wal_dir ~init:[]
             ~f:(fun acc ~seq payload ->
               match Durable.decode_obs payload with
               | Ok o -> (seq, o) :: acc
               | Error msg ->
                 Printf.eprintf
                   "pathsel serve: WAL record %d undecodable (%s); \
                    skipped\n%!"
                   seq msg;
                 acc)
         with
         | Ok (acc, _last) -> Monitor.replay mon (List.rev acc)
         | Error e ->
           Printf.eprintf
             "pathsel serve: WAL replay failed: %s (continuing from the \
              checkpoint alone)\n%!"
             (Core.Errors.to_string e)));
     Atomic.set t.mon (Some mon));
  t

let monitor_step t ~now =
  match Atomic.get t.mon with
  | None -> ()
  | Some mon ->
    if Atomic.exchange t.mon_resync false then begin
      let hot = Atomic.get t.hot in
      if hot.artifact.Store.n_paths = Monitor.n_paths mon then
        Monitor.swapped mon ~r:hot.n_rep
          ~m:(hot.artifact.Store.n_paths - hot.n_rep)
      else begin
        (* an operator swapped in an artifact over a different path
           pool: the recent-die ring no longer lines up, so monitoring
           stands down rather than feed the detector garbage *)
        Atomic.set t.mon None;
        Printf.eprintf
          "pathsel serve: artifact path pool changed (%d -> %d paths); \
           drift monitoring disabled\n%!"
          (Monitor.n_paths mon) hot.artifact.Store.n_paths
      end
    end;
    (match Atomic.get t.mon with Some m -> Monitor.step m ~now | None -> ())

(* Runs on the monitor thread, right after [monitor_step]: write a
   checkpoint when enough journaled records have been applied since the
   last one, or when the generation moved (a reselect or reload landed —
   the next boot must not resurrect the pre-swap monitor state against
   the post-swap artifact). The write itself is [Store.write_file_atomic]
   under the hood, so a SIGKILL mid-checkpoint leaves the previous
   checkpoint intact and recovery just replays a longer WAL suffix. *)
let maybe_checkpoint ?(force = false) t =
  match (t.dur, Atomic.get t.mon) with
  | None, _ | _, None -> ()
  | Some dur, Some mon ->
    let applied = Monitor.applied_seq mon in
    let gen = (Atomic.get t.hot).gen in
    if
      force
      || applied - Atomic.get dur.ckpt_seq >= dur.dur_cfg.checkpoint_every
      || gen <> Atomic.get dur.ckpt_gen
    then begin
      match Durable.save_checkpoint dur.ckpt_path ~gen mon with
      | Ok () ->
        Atomic.set dur.ckpt_seq applied;
        Atomic.set dur.ckpt_gen gen;
        (* sealed segments fully below the checkpoint are dead weight;
           a failed prune only delays space reclamation *)
        (match Store.Wal.prune dur.wal ~upto_seq:applied with
         | Ok _ -> ()
         | Error e ->
           Printf.eprintf "pathsel serve: WAL prune failed: %s\n%!"
             (Core.Errors.to_string e))
      | Error e ->
        (* the previous checkpoint still stands; recovery falls back to
           a longer replay, losing nothing *)
        Printf.eprintf "pathsel serve: checkpoint write failed: %s\n%!"
          (Core.Errors.to_string e)
    end

let monitor_report t = Option.map Monitor.read (Atomic.get t.mon)

let latency_stats_locked c =
  let n = Int.min c.lat_n latency_window in
  if n = 0 then Wire.Null
  else begin
    let window = Array.sub c.lat 0 n in
    let sum = Array.fold_left ( +. ) 0.0 window in
    Wire.Obj
      [
        ("min", Wire.Float (Array.fold_left Float.min window.(0) window));
        ("mean", Wire.Float (sum /. float_of_int n));
        ("max", Wire.Float (Array.fold_left Float.max window.(0) window));
        ("p99", Wire.Float (Stats.Descriptive.quantile window 0.99));
        ("window", Wire.Int n);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Request handling *)

(* every ok response names the artifact generation that produced it, so
   a client can tell when a hot swap happened under its stream *)
let ok_fields ~gen op rest =
  Wire.Obj
    (("ok", Wire.Bool true)
    :: ("op", Wire.String op)
    :: ("gen", Wire.Int gen)
    :: rest)

(* semantic failures (bad shapes, compute errors) carry their
   sysexits-style numeric code; clients must not retry them *)
let error_response ?(code = 65) msg =
  Wire.Obj
    [ ("ok", Wire.Bool false); ("error", Wire.String msg); ("code", Wire.Int code) ]

(* infrastructure failures carry a string code ("overloaded",
   "deadline_exceeded", "line_too_long", "bad_frame"): the request may
   never have been seen whole, so a retry is safe and expected *)
let infra_response code msg =
  Wire.Obj
    [ ("ok", Wire.Bool false); ("error", Wire.String msg); ("code", Wire.String code) ]

let monitor_fields t =
  match monitor_report t with
  | None -> []
  | Some (r : Monitor.report) ->
    [
      ( "monitor",
        Wire.Obj
          [
            ("state", Wire.String (Stats.Drift.state_to_string r.Monitor.state));
            ("calibrating", Wire.Bool r.Monitor.calibrating);
            ("observed", Wire.Int r.Monitor.observed);
            ("skipped", Wire.Int r.Monitor.skipped);
            ("dropped", Wire.Int r.Monitor.dropped);
            ("cusum", Wire.Float r.Monitor.cusum);
            ("var_ratio", Wire.Float r.Monitor.var_ratio);
            ("quarantined", Wire.Bool r.Monitor.quarantined);
            ("groups", Wire.Int r.Monitor.groups);
            ("group_overflow", Wire.Int r.Monitor.group_overflow);
            ("monitor_errors", Wire.Int r.Monitor.monitor_errors);
            ("reselects", Wire.Int r.Monitor.reselects);
            ("reselect_failures", Wire.Int r.Monitor.reselect_failures);
            ("last_reselect_ms", Wire.Float r.Monitor.last_reselect_ms);
            ("backoff_s", Wire.Float r.Monitor.backoff_s);
            ("last_error", Wire.String r.Monitor.last_error);
          ] );
    ]

let durability_fields t =
  match t.dur with
  | None -> []
  | Some dur ->
    (* [jm] serializes against appenders, so the sequence read is a
       consistent journal high-water mark *)
    Mutex.lock dur.jm;
    let journaled = Store.Wal.next_seq dur.wal - 1 in
    Mutex.unlock dur.jm;
    [
      ( "durability",
        Wire.Obj
          [
            ("wal_dir", Wire.String dur.dur_cfg.wal_dir);
            ("journaled", Wire.Int journaled);
            ("checkpoint_seq", Wire.Int (Atomic.get dur.ckpt_seq));
            ("checkpoint_gen", Wire.Int (Atomic.get dur.ckpt_gen));
            ("checkpoint_every", Wire.Int dur.dur_cfg.checkpoint_every);
          ] );
    ]

let handle_stats t =
  let hot = Atomic.get t.hot in
  let a = hot.artifact in
  Mutex.lock t.cm;
  let c = t.counters in
  let fields =
    [
      ("requests", Wire.Int c.requests);
      ("dies_predicted", Wire.Int c.predicted);
      ("yield_estimates", Wire.Int c.yields);
      ("dies_tuned", Wire.Int c.tuned);
      ("tune_infeasible", Wire.Int c.tune_infeasible);
      ("errors", Wire.Int c.errors);
      ("shed", Wire.Int c.shed);
      ("timeouts", Wire.Int c.timeouts);
      ("idle_closed", Wire.Int c.idle_closed);
      ("overflows", Wire.Int c.overflows);
      ("reloads", Wire.Int c.reloads);
      ("reload_failures", Wire.Int c.reload_failures);
      (* pool size behind the batched matrix applies (PATHSEL_DOMAINS /
         --domains); the served bits are identical at any value *)
      ("domains", Wire.Int (Par.Pool.size ()));
      ("workers", Wire.Int (resolved_workers t.cfg));
      ("uptime_s", Wire.Float (Unix.gettimeofday () -. t.started));
      ("latency_ms", latency_stats_locked c);
      ( "artifact",
        Wire.Obj
          [
            ("fingerprint", Wire.String a.Store.fingerprint);
            ("generation", Wire.Int hot.gen);
            ("paths", Wire.Int a.Store.n_paths);
            ("representatives", Wire.Int hot.n_rep);
            ("predicted_paths", Wire.Int (a.Store.n_paths - hot.n_rep));
            ("t_cons_ps", Wire.Float a.Store.t_cons);
            ("eps", Wire.Float a.Store.eps);
          ] );
    ]
    @ monitor_fields t
    @ durability_fields t
  in
  Mutex.unlock t.cm;
  ok_fields ~gen:hot.gen "stats" fields

let handle_predict t hot req =
  match Wire.member "dies" req with
  | None -> error_response "predict: missing \"dies\""
  | Some dies ->
    (match Wire.mat_of_json ~cols:hot.n_rep dies with
     | Error msg -> error_response ("predict: " ^ msg)
     | Ok measured ->
       let n_dies, _ = Linalg.Mat.dims measured in
       if n_dies > t.cfg.max_batch then
         error_response
           (Printf.sprintf "predict: batch of %d dies exceeds the %d-die limit"
              n_dies t.cfg.max_batch)
       else begin
         let dirty_flag =
           match Wire.member "robust" req with Some (Wire.Bool b) -> b | _ -> false
         in
         let has_missing =
           let found = ref false in
           for i = 0 to n_dies - 1 do
             for j = 0 to hot.n_rep - 1 do
               if not (Float.is_finite (Linalg.Mat.get measured i j)) then found := true
             done
           done;
           !found
         in
         (* a request that flags dirty data — or one that provably is
            (missing entries) — routes through the fault-tolerant
            predictor and its Gram blocks; clean batches take
            the single matrix-matrix apply *)
         let extra, predicted =
           if dirty_flag || has_missing then begin
             let pr = Core.Robust.predict_all hot.robust ~measured in
             ( [
                 ("robust", Wire.Bool true);
                 ( "screen",
                   Wire.Obj
                     [
                       ("missing", Wire.Int pr.Core.Robust.screened.Core.Robust.missing);
                       ("outliers", Wire.Int pr.Core.Robust.screened.Core.Robust.outliers);
                       ("resolves", Wire.Int pr.Core.Robust.resolves);
                       ("ridge_fallbacks", Wire.Int pr.Core.Robust.ridge_fallbacks);
                       ("dead_dies", Wire.Int pr.Core.Robust.dead_dies);
                     ] );
               ],
               pr.Core.Robust.predicted )
           end
           else
             ([ ("robust", Wire.Bool false) ],
              Core.Predictor.predict_all hot.predictor ~measured)
         in
         tick t (fun c -> c.predicted <- c.predicted + n_dies);
         ok_fields ~gen:hot.gen "predict"
           (("dies", Wire.Int n_dies)
            :: extra
            @ [ ("predictions", Wire.mat_to_json predicted) ])
       end)

(* The observe intake over one batch: the MAD screen and the missing-
   truth check keep corrupted dies out of the ring/detector stream (they
   are counted, not served); every clean die gets one predictor apply,
   its full-pool row and its residual. *)
let observations ~predictor ~robust ~measured ~truth ~wafer =
  let n_dies, _ = Linalg.Mat.dims measured in
  let rep = Core.Predictor.rep_indices predictor in
  let rem = Core.Predictor.rem_indices predictor in
  let n_rem = Array.length rem in
  let screen = Core.Robust.screen robust ~measured in
  let die_clean i =
    let row = screen.Core.Robust.mask.(i) in
    let ok = ref (Array.for_all (fun b -> b) row) in
    for j = 0 to n_rem - 1 do
      if not (Float.is_finite (Linalg.Mat.get truth i j)) then ok := false
    done;
    !ok
  in
  let pred = Core.Predictor.predict_all predictor ~measured in
  let status = Array.make n_dies "screened" in
  let batch = ref [] in
  for i = 0 to n_dies - 1 do
    if die_clean i then begin
      status.(i) <- "used";
      let m_row = Linalg.Mat.row measured i in
      let t_row = Linalg.Mat.row truth i in
      let full = Array.make (Array.length rep + n_rem) 0.0 in
      Array.iteri (fun j p -> full.(p) <- m_row.(j)) rep;
      Array.iteri (fun j p -> full.(p) <- t_row.(j)) rem;
      let resid = ref 0.0 in
      for j = 0 to n_rem - 1 do
        resid := !resid +. (t_row.(j) -. Linalg.Mat.get pred i j)
      done;
      batch :=
        {
          Monitor.measured = m_row;
          truth = t_row;
          full;
          resid = !resid /. float_of_int n_rem;
          wafer;
        }
        :: !batch
    end
  done;
  (status, List.rev !batch)

(* observe: stream fully measured dies (representative measurements
   plus ground-truth remaining-path delays) into the self-healing loop.
   The handler does the cheap, bounded part — screen, one predictor
   apply, residuals — and hands the dies to the monitor thread through
   a lock-free queue; detection and re-selection never ride a request. *)
let handle_observe t hot req =
  match Atomic.get t.mon with
  | None -> error_response "observe: drift monitoring is disabled on this server"
  | Some mon ->
    (match (Wire.member "dies" req, Wire.member "truth" req) with
     | None, _ -> error_response "observe: missing \"dies\""
     | _, None -> error_response "observe: missing \"truth\""
     | Some dies, Some truth ->
       let n_rem = hot.artifact.Store.n_paths - hot.n_rep in
       (match
          ( Wire.mat_of_json ~cols:hot.n_rep dies,
            Wire.mat_of_json ~cols:n_rem truth )
        with
        | Error msg, _ -> error_response ("observe: dies: " ^ msg)
        | _, Error msg -> error_response ("observe: truth: " ^ msg)
        | Ok measured, Ok truth ->
          let n_dies, _ = Linalg.Mat.dims measured in
          let n_truth, _ = Linalg.Mat.dims truth in
          if n_dies <> n_truth then
            error_response
              (Printf.sprintf
                 "observe: %d measurement rows but %d truth rows" n_dies
                 n_truth)
          else if n_dies > t.cfg.max_batch then
            error_response
              (Printf.sprintf
                 "observe: batch of %d dies exceeds the %d-die limit" n_dies
                 t.cfg.max_batch)
          else if n_dies = 0 then
            error_response "observe: empty batch"
          else begin
            (* optional wafer/lot id keys per-group drift calibration;
               absent (or non-string) means the flat default group *)
            let wafer =
              match Wire.member "wafer" req with
              | Some (Wire.String w) -> w
              | Some _ | None -> ""
            in
            (* per-die verdicts ride the ack, so a tester knows which of
               its dies actually fed the loop and which the MAD/missing
               screen quarantined *)
            let status, batch =
              observations ~predictor:hot.predictor ~robust:hot.robust
                ~measured ~truth ~wafer
            in
            let queued = List.length batch in
            let journal_and_submit () =
              match t.dur with
              | None ->
                List.iter (fun o -> Monitor.submit mon o) batch;
                Ok false
              | Some dur ->
                (match batch with
                 | [] -> Ok true (* nothing survived the screen *)
                 | _ :: _ ->
                   (* journal-before-ack: the fsync'd append is the
                      durability point — the ack leaves only after it.
                      [jm] keeps WAL order equal to ingestion order
                      (see [dur_state]); the append blocks this worker,
                      never the monitor thread. *)
                   Mutex.lock dur.jm;
                   Fun.protect
                     ~finally:(fun () -> Mutex.unlock dur.jm)
                     (fun () ->
                       match
                         Store.Wal.append dur.wal
                           (List.map Durable.encode_obs batch)
                       with
                       | Error e -> Error e
                       | Ok last ->
                         let first = last - queued + 1 in
                         List.iteri
                           (fun i o -> Monitor.submit ~seq:(first + i) mon o)
                           batch;
                         Ok true))
            in
            match journal_and_submit () with
            | Error e ->
              (* the observation is NOT durable, so no ok ack may leave;
                 the string code marks it safe to retry *)
              infra_response "journal_failed"
                ("observe: journal append failed: " ^ Core.Errors.to_string e)
            | Ok journaled ->
              ok_fields ~gen:hot.gen "observe"
                [
                  ("dies", Wire.Int n_dies);
                  ("queued", Wire.Int queued);
                  ("screened", Wire.Int (n_dies - queued));
                  ("journaled", Wire.Bool journaled);
                  ( "die_status",
                    Wire.List
                      (Array.to_list status
                      |> List.map (fun s -> Wire.String s)) );
                ]
          end))

(* ------------------------------------------------------------------ *)
(* Decision ops: yield estimation and per-die tuning *)

(* a yield estimate is one dense pass per sample block over the full
   sensitivity matrix; the cap keeps a single request's compute bounded
   the way max_batch bounds predict *)
let max_yield_samples = 1 lsl 20

let handle_yield t hot req =
  let art = hot.artifact in
  let bad msg = error_response ("yield: " ^ msg) in
  let int_field name default =
    match Wire.member name req with
    | Some (Wire.Int n) -> Ok n
    | Some _ -> Error (Printf.sprintf "%S must be an integer" name)
    | None -> Ok default
  in
  match (int_field "samples" 4096, int_field "seed" 1) with
  | Error msg, _ | _, Error msg -> bad msg
  | Ok samples, Ok seed ->
    if samples < 2 || samples > max_yield_samples then
      bad (Printf.sprintf "\"samples\" must be in [2, %d]" max_yield_samples)
    else begin
      let t_cons =
        match Wire.member "t_cons" req with
        | None -> Some art.Store.t_cons
        | Some v -> Wire.to_float v
      in
      match t_cons with
      | None -> bad "\"t_cons\" must be a number"
      | Some t_cons when not (Float.is_finite t_cons) ->
        bad "\"t_cons\" must be finite"
      | Some t_cons ->
        let meth =
          match Wire.member "method" req with
          | Some (Wire.String ("is" | "importance")) | None -> Ok `Is
          | Some (Wire.String ("mc" | "brute-force")) -> Ok `Mc
          | Some _ -> Error "\"method\" must be \"is\" or \"mc\""
        in
        (match meth with
         | Error msg -> bad msg
         | Ok meth ->
           (* explicit seed + strict draw order: the same request always
              returns the same bits, so clients can recompute and audit *)
           let rng = Rng.create seed in
           let a = art.Store.a_mat and mu = art.Store.mu in
           let est =
             match meth with
             | `Is -> Yield.importance ~a ~mu ~t_cons ~rng ~samples ()
             | `Mc -> Yield.brute_force ~a ~mu ~t_cons ~rng ~samples ()
           in
           tick t (fun c -> c.yields <- c.yields + 1);
           ok_fields ~gen:hot.gen "yield"
             [
               ( "method",
                 Wire.String (match meth with `Is -> "is" | `Mc -> "mc") );
               ("t_cons", Wire.Float est.Yield.t_cons);
               ("p_fail", Wire.Float est.Yield.p_fail);
               ("sn_p_fail", Wire.Float est.Yield.sn_p_fail);
               ("yield", Wire.Float (Yield.yield_of est));
               ("std_err", Wire.Float est.Yield.std_err);
               ("sn_std_err", Wire.Float est.Yield.sn_std_err);
               ("ess", Wire.Float est.Yield.ess);
               ("samples", Wire.Int est.Yield.samples);
               ("hits", Wire.Int est.Yield.hits);
               ("shift_norm", Wire.Float est.Yield.shift_norm);
               ("dominant", Wire.Int est.Yield.dominant);
               ("sample_reduction", Wire.Float (Yield.sample_reduction est));
             ])
    end

let level_of_json j =
  match (Wire.member "offset_ps" j, Wire.member "cost" j) with
  | Some o, Some c ->
    (match (Wire.to_float o, Wire.to_float c) with
     | Some offset_ps, Some cost -> Ok { Tune.offset_ps; cost }
     | _ -> Error "level \"offset_ps\"/\"cost\" must be numbers")
  | _ -> Error "each level needs \"offset_ps\" and \"cost\""

let buffer_of_json ~n_paths b j =
  match (Wire.member "paths" j, Wire.member "levels" j) with
  | Some (Wire.List pj), Some (Wire.List lj) ->
    let rec ints acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | Wire.Int p :: rest ->
        if p < 0 || p >= n_paths then
          Error
            (Printf.sprintf "buffer %d drives path %d outside [0, %d)" b p
               n_paths)
        else ints (p :: acc) rest
      | _ -> Error (Printf.sprintf "buffer %d: paths must be integers" b)
    in
    let rec levels acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | l :: rest ->
        (match level_of_json l with
         | Ok lv -> levels (lv :: acc) rest
         | Error msg -> Error (Printf.sprintf "buffer %d: %s" b msg))
    in
    (match (ints [] pj, levels [] lj) with
     | Ok paths, Ok lvls ->
       if Array.length lvls = 0 then
         Error (Printf.sprintf "buffer %d has no levels" b)
       else Ok { Tune.paths; levels = lvls }
     | Error msg, _ | _, Error msg -> Error msg)
  | _ -> Error (Printf.sprintf "buffer %d needs \"paths\" and \"levels\" lists" b)

let buffers_to_json (buffers : Tune.buffer array) =
  Wire.List
    (Array.to_list buffers
    |> List.map (fun (b : Tune.buffer) ->
           Wire.Obj
             [
               ( "paths",
                 Wire.List
                   (Array.to_list b.Tune.paths
                   |> List.map (fun p -> Wire.Int p)) );
               ( "levels",
                 Wire.List
                   (Array.to_list b.Tune.levels
                   |> List.map (fun (l : Tune.level) ->
                          Wire.Obj
                            [
                              ("offset_ps", Wire.Float l.Tune.offset_ps);
                              ("cost", Wire.Float l.Tune.cost);
                            ])) );
             ]))

let buffers_of_json ~n_paths j =
  match j with
  | Wire.List bjs ->
    let rec go b acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | bj :: rest ->
        (match buffer_of_json ~n_paths b bj with
         | Ok buf -> go (b + 1) (buf :: acc) rest
         | Error msg -> Error msg)
    in
    go 0 [] bjs
  | _ -> Error "\"buffers\" must be a list"

(* tune: configure each die's tunable buffers to close timing at
   minimum cost, from predicted delays ("dies" = representative
   measurements, the normal flow) or caller-supplied full delay vectors
   ("delays"). Any die that cannot meet timing fails the whole request
   with the typed [infeasible] code 65 — a semantic answer, never a
   transport failure, so clients do not retry it. *)
let handle_tune t hot req =
  let art = hot.artifact in
  let n_paths = art.Store.n_paths in
  let bad msg = error_response ("tune: " ^ msg) in
  match Wire.member "buffers" req with
  | None -> bad "missing \"buffers\""
  | Some bj ->
    (match buffers_of_json ~n_paths bj with
     | Error msg -> bad msg
     | Ok buffers ->
       let t_clk =
         match Wire.member "t_clk" req with
         | None -> Some art.Store.t_cons
         | Some v -> Wire.to_float v
       in
       (match t_clk with
        | None -> bad "\"t_clk\" must be a number"
        | Some t_clk when not (Float.is_finite t_clk) ->
          bad "\"t_clk\" must be finite"
        | Some t_clk ->
          let full_delays =
            match (Wire.member "delays" req, Wire.member "dies" req) with
            | Some d, _ -> Wire.mat_of_json ~cols:n_paths d
            | None, Some dies ->
              (match Wire.mat_of_json ~cols:hot.n_rep dies with
               | Error _ as e -> e
               | Ok measured ->
                 Ok (Core.Predictor.full_delays hot.predictor ~measured))
            | None, None -> Error "missing \"dies\" (or \"delays\")"
          in
          (match full_delays with
           | Error msg -> bad msg
           | Ok delays ->
             let n_dies, _ = Linalg.Mat.dims delays in
             if n_dies > t.cfg.max_batch then
               bad
                 (Printf.sprintf "batch of %d dies exceeds the %d-die limit"
                    n_dies t.cfg.max_batch)
             else begin
               let results =
                 Array.init n_dies (fun i ->
                     Tune.solve
                       {
                         Tune.delays = Linalg.Mat.row delays i;
                         t_clk;
                         buffers;
                       })
               in
               let first_infeasible = ref None in
               Array.iteri
                 (fun i r ->
                   match (r, !first_infeasible) with
                   | Tune.Infeasible inf, None ->
                     first_infeasible := Some (i, inf)
                   | _ -> ())
                 results;
               match !first_infeasible with
               | Some (die, inf) ->
                 tick t (fun c ->
                     c.tune_infeasible <- c.tune_infeasible + 1);
                 error_response ~code:65
                   (Printf.sprintf
                      "tune: infeasible: die %d cannot meet t_clk=%g ps \
                       (path %d misses by %g ps at minimum offsets)"
                      die t_clk inf.Tune.path inf.Tune.deficit_ps)
               | None ->
                 tick t (fun c -> c.tuned <- c.tuned + n_dies);
                 let rows =
                   Array.to_list results
                   |> List.map (fun r ->
                          match r with
                          | Tune.Infeasible _ -> assert false
                          | Tune.Feasible a ->
                            Wire.Obj
                              [
                                ( "levels",
                                  Wire.List
                                    (Array.to_list a.Tune.levels
                                    |> List.map (fun l -> Wire.Int l)) );
                                ("cost", Wire.Float a.Tune.cost);
                                ("slack_ps", Wire.Float a.Tune.slack_ps);
                                ("exact", Wire.Bool a.Tune.exact);
                              ])
                 in
                 ok_fields ~gen:hot.gen "tune"
                   [
                     ("dies", Wire.Int n_dies);
                     ("t_clk", Wire.Float t_clk);
                     ("results", Wire.List rows);
                   ]
             end)))

let compute_ops =
  [
    ("predict", handle_predict);
    ("observe", handle_observe);
    ("yield", handle_yield);
    ("tune", handle_tune);
  ]

(* Answer one request line into [w], then [finish] the response: a
   connection writes its tail to the socket there. The request counts
   once, as soon as its response is computed: before any byte leaves,
   so a client holding its answer finds it in stats, and before a sink's
   [Io.Timeout] or [Io.Closed] can cut the encode short. The latency the
   stats op reports runs from the request line to the end of [finish],
   or to the failed write: to the last byte written for a connection,
   to the last byte encoded for the in-process [handle]. *)
let answer t w ~finish line =
  let t0 = Unix.gettimeofday () in
  (* one snapshot per request: a SIGHUP reload swapping [t.hot] mid-soak
     never changes the artifact a request already started on *)
  let hot = Atomic.get t.hot in
  let response =
    match Wire.parse line with
    | Error msg -> infra_response "bad_frame" ("parse error: " ^ msg)
    | Ok req ->
      (match Wire.member "op" req with
       | Some (Wire.String "ping") ->
         ok_fields ~gen:hot.gen "ping"
           [ ("version", Wire.Int Store.current_version) ]
       | Some (Wire.String "stats") -> handle_stats t
       | Some (Wire.String "shutdown") ->
         Atomic.set t.stop_flag true;
         ok_fields ~gen:hot.gen "shutdown" [ ("draining", Wire.Bool true) ]
       | Some (Wire.String op) ->
         (match List.assoc_opt op compute_ops with
          | Some h ->
            (* isolate compute errors: a pathological batch answers
               ok:false instead of tearing the connection down *)
            (match Core.Errors.catch (fun () -> h t hot req) with
             | Ok resp -> resp
             | Error e ->
               error_response ~code:(Core.Errors.exit_code e) (Core.Errors.to_string e))
          | None -> error_response (Printf.sprintf "unknown op %S" op))
       | Some _ -> error_response "\"op\" must be a string"
       | None -> error_response "request must be an object with an \"op\" field")
  in
  let failed =
    match response with Wire.Obj (("ok", Wire.Bool false) :: _) -> true | _ -> false
  in
  tick t (fun c ->
      c.requests <- c.requests + 1;
      if failed then c.errors <- c.errors + 1);
  Fun.protect
    ~finally:(fun () ->
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      tick t (fun c ->
          c.lat.(c.lat_n mod latency_window) <- ms;
          c.lat_n <- c.lat_n + 1))
    (fun () ->
      Wire.Writer.json w response;
      finish ())

let handle t line =
  let w = Wire.Writer.create () in
  answer t w ~finish:ignore line;
  Wire.Writer.contents w

(* ------------------------------------------------------------------ *)
(* Connections *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve_conn t fd =
  let framer = Wire.Framer.create ~max_line:t.cfg.max_line () in
  let chunk = Bytes.create 65536 in
  (* [Some t0]: an unterminated request line started arriving at t0 and
     must complete — bytes and our response — within the deadline *)
  let started = ref None in
  let after_response () =
    started :=
      (if Wire.Framer.partial framer then Some (Unix.gettimeofday ()) else None)
  in
  (* every response is sent in 64 KiB pieces while it is encoded, from
     the connection's one writer; its pieces share one deadline, armed
     by the first of them *)
  let due = ref Float.infinity in
  let send b ofs len =
    let now = Unix.gettimeofday () in
    if Float.equal !due Float.infinity then due := now +. t.cfg.deadline;
    Io.write_bytes fd b ofs len ~timeout:(Float.max 0.0 (!due -. now))
  in
  let out = Wire.Writer.create ~sink:send () in
  let finish () =
    Wire.Writer.add_char out '\n';
    Wire.Writer.flush out
  in
  (* false once a write failed: the stream may end mid-line, so the
     connection closes and writes nothing more *)
  let respond write =
    due := Float.infinity;
    match write () with
    | () -> true
    | exception Io.Timeout ->
      (* a reader too slow to take its own response: count and drop *)
      tick t (fun c -> c.timeouts <- c.timeouts + 1);
      false
    | exception Io.Closed -> false
  in
  let respond_json j =
    respond (fun () ->
        Wire.Writer.json out j;
        finish ())
  in
  let rec loop () =
    if not (Atomic.get t.stop_flag) then
      match Wire.Framer.pop framer with
      | Some (Wire.Framer.Line line) ->
        (* even an empty line gets its (error) response: one line in,
           one line out keeps client pipelining aligned *)
        let keep = respond (fun () -> answer t out ~finish line) in
        after_response ();
        if keep then loop ()
      | Some (Wire.Framer.Too_long n) ->
        (* the cap held (bytes past it were discarded as they arrived);
           the oversized line gets its own typed error and the
           connection lives on *)
        tick t (fun c ->
            c.overflows <- c.overflows + 1;
            c.errors <- c.errors + 1);
        let keep =
          respond_json
            (infra_response "line_too_long"
               (Printf.sprintf "request line of %d bytes exceeds the %d-byte cap" n
                  t.cfg.max_line))
        in
        after_response ();
        if keep then loop ()
      | None ->
        let timeout, mid_request =
          match !started with
          | Some t0 ->
            (Float.max 0.0 (t0 +. t.cfg.deadline -. Unix.gettimeofday ()), true)
          | None -> (t.cfg.idle_timeout, false)
        in
        (match Io.wait_readable fd timeout with
         | `Interrupted ->
           (* a signal, not a timeout: re-derive the remaining budget
              and keep waiting (the old [readable] conflated these) *)
           loop ()
         | `Timeout ->
           if mid_request then begin
             (* deadline expiry is reported, not silently re-looped; the
                connection closes because its stream is now mid-frame *)
             tick t (fun c ->
                 c.timeouts <- c.timeouts + 1;
                 c.errors <- c.errors + 1);
             ignore
               (respond_json
                  (infra_response "deadline_exceeded"
                     "request did not complete within the deadline"))
           end
           else
             (* silent connection: reap it quietly to free the worker *)
             tick t (fun c -> c.idle_closed <- c.idle_closed + 1)
         | `Ready ->
           (match Io.read fd chunk 0 (Bytes.length chunk) ~timeout:1.0 with
            | Io.Eof -> () (* client done *)
            | Io.Read_timeout -> loop ()
            | Io.Data k ->
              Wire.Framer.feed framer chunk 0 k;
              (match !started with
               | None when Wire.Framer.partial framer ->
                 started := Some (Unix.gettimeofday ())
               | _ -> ());
              loop ()))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop, worker pool, reload *)

let listen_on addr =
  (* bind/listen can raise (address in use, bad path): without the
     close-on-exception the freshly opened socket would leak *)
  match addr with
  | Unix_sock path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64
     with
     | () ->
       (fd, Unix_sock path, fun () -> if Sys.file_exists path then Sys.remove path)
     | exception e ->
       close_quiet fd;
       raise e)
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 64;
       Unix.getsockname fd
     with
     | Unix.ADDR_INET (_, p) -> (fd, Tcp p, fun () -> ())
     | _ -> (fd, Tcp port, fun () -> ())
     | exception e ->
       close_quiet fd;
       raise e)

type shared = {
  srv : t;
  q : Unix.file_descr Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
}

let worker sh =
  let srv = sh.srv in
  let rec loop () =
    Mutex.lock sh.qm;
    while Queue.is_empty sh.q && not (Atomic.get srv.stop_flag) do
      Condition.wait sh.qc sh.qm
    done;
    let job = Queue.take_opt sh.q in
    Mutex.unlock sh.qm;
    match job with
    | None -> () (* stopping and the queue is drained *)
    | Some fd ->
      (match serve_conn srv fd with
       | () -> ()
       | exception (Unix.Unix_error _ | Sys_error _ | Io.Timeout | Io.Closed) ->
         (* one bad connection never takes its worker down *)
         tick srv (fun c -> c.errors <- c.errors + 1));
      close_quiet fd;
      loop ()
  in
  loop ()

let overloaded_line =
  Wire.print (infra_response "overloaded" "server at capacity; retry with backoff")
  ^ "\n"

let run ?(install_signals = true) ?config ?reload_from ?on_ready artifact addr =
  let t = create ?config ?reload_from artifact in
  (* a client hanging up mid-response must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if install_signals then begin
    let stop_on _ = Atomic.set t.stop_flag true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
    (* EINTR storms (e.g. the chaos harness) interrupt syscalls without
       changing behaviour; the Io wrappers re-derive their budgets *)
    try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ()))
    with Invalid_argument _ -> ()
  end;
  (match t.reload_from with
   | Some _ ->
     (* hot reload is armed independently of install_signals so a
        threaded test server can exercise it too *)
     (try
        Sys.set_signal Sys.sighup
          (Sys.Signal_handle (fun _ -> Atomic.set t.reload_requested true))
      with Invalid_argument _ -> ())
   | None -> ());
  let lfd, bound, cleanup = listen_on addr in
  let sh = { srv = t; q = Queue.create (); qm = Mutex.create (); qc = Condition.create () } in
  let workers =
    List.init (resolved_workers t.cfg) (fun _ -> Thread.create worker sh)
  in
  (* the self-healing loop rides its own thread: drain observations,
     update the detector, and run re-selection when drift binds — a
     slow reselect stalls only this thread, never a request *)
  let monitor_thread =
    match Atomic.get t.mon with
    | None -> None
    | Some _ ->
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.stop_flag) do
               (* thread-level fail-safe: an escaped exception must not
                  silently kill the loop while the server still reports
                  the monitor as armed — count it, tell the operator,
                  keep monitoring *)
               (match
                  monitor_step t ~now:(Unix.gettimeofday ());
                  (* checkpointing rides the monitor thread: it alone
                     may read monitor internals *)
                  maybe_checkpoint t
                with
                | () -> ()
                | exception e ->
                  let msg = Printexc.to_string e in
                  (match Atomic.get t.mon with
                   | Some mon -> Monitor.note_error mon msg
                   | None -> ());
                  tick t (fun c -> c.errors <- c.errors + 1);
                  Printf.eprintf
                    "pathsel serve: monitor step failed: %s (monitoring \
                     continues)\n%!"
                    msg);
               Thread.delay 0.05
             done)
           ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.stop_flag true;
      Mutex.lock sh.qm;
      Condition.broadcast sh.qc;
      Mutex.unlock sh.qm;
      List.iter Thread.join workers;
      Option.iter Thread.join monitor_thread;
      (* the monitor thread has exited (join is the happens-before), so
         the main thread may write one final checkpoint: a clean shutdown
         leaves a checkpoint at the journal's high-water mark and the
         next boot replays nothing *)
      (match maybe_checkpoint ~force:true t with
       | () -> ()
       | exception e ->
         Printf.eprintf "pathsel serve: final checkpoint failed: %s\n%!"
           (Printexc.to_string e));
      Option.iter (fun d -> Store.Wal.close d.wal) t.dur;
      (* accepted but never picked up: close without service *)
      Mutex.lock sh.qm;
      Queue.iter close_quiet sh.q;
      Queue.clear sh.q;
      Mutex.unlock sh.qm;
      close_quiet lfd;
      cleanup ())
    (fun () ->
      Option.iter (fun f -> f bound) on_ready;
      while not (Atomic.get t.stop_flag) do
        if Atomic.exchange t.reload_requested false then begin
          match do_reload t with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf
              "pathsel serve: reload failed: %s (keeping the loaded artifact)\n%!"
              msg
        end;
        match Io.wait_readable lfd 0.25 with
        | `Timeout | `Interrupted -> ()
        | `Ready ->
          (match Unix.accept lfd with
           | exception Unix.Unix_error _ -> ()
           | cfd, _ ->
             Mutex.lock sh.qm;
             if Queue.length sh.q >= t.cfg.queue then begin
               Mutex.unlock sh.qm;
               (* bounded in-flight queue: past capacity the connection
                  is refused with a typed response, not silently queued
                  into an unbounded backlog *)
               tick t (fun c -> c.shed <- c.shed + 1);
               (match Io.write_all cfd overloaded_line ~timeout:0.25 with
                | () -> ()
                | exception (Io.Timeout | Io.Closed) -> ());
               close_quiet cfd
             end
             else begin
               Queue.add cfd sh.q;
               Condition.signal sh.qc;
               Mutex.unlock sh.qm
             end)
      done)

(* ------------------------------------------------------------------ *)
(* Client *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    framer : Wire.Framer.t;
    chunk : Bytes.t;
    out : Wire.Writer.t;  (* request lines are sent from here as they are written *)
    due : float ref;  (* the current request's deadline, shared by its pieces *)
    mutable last_gen : int option;
        (* last artifact generation seen on this connection *)
  }

  let sockaddr_of = function
    | Unix_sock path -> Unix.ADDR_UNIX path
    | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

  let connect ?(retries = 50) ?(timeout = 5.0) addr =
    let sa = sockaddr_of addr in
    let domain = match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
    let rec go n =
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Io.connect fd sa ~timeout with
      | () ->
        let due = ref 0.0 in
        let send b ofs len =
          Io.write_bytes fd b ofs len
            ~timeout:(Float.max 0.0 (!due -. Unix.gettimeofday ()))
        in
        {
          fd;
          framer = Wire.Framer.create ();
          chunk = Bytes.create 65536;
          out = Wire.Writer.create ~sink:send ();
          due;
          last_gen = None;
        }
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when n > 0 ->
        (* server still starting (or its backlog momentarily full) *)
        close_quiet fd;
        Unix.sleepf 0.1;
        go (n - 1)
      | exception e ->
        close_quiet fd;
        raise e
    in
    go retries

  let close c = close_quiet c.fd

  exception Oversized of int

  (* one response line within the wall-clock budget; None = EOF *)
  let read_line ~deadline c =
    let rec go () =
      match Wire.Framer.pop c.framer with
      | Some (Wire.Framer.Line l) -> Some l
      | Some (Wire.Framer.Too_long n) -> raise (Oversized n)
      | None ->
        (match
           Io.read c.fd c.chunk 0 (Bytes.length c.chunk)
             ~timeout:(Float.max 0.0 (deadline -. Unix.gettimeofday ()))
         with
         | Io.Eof -> None
         | Io.Read_timeout -> raise Io.Timeout
         | Io.Data k ->
           Wire.Framer.feed c.framer c.chunk 0 k;
           go ())
    in
    go ()

  (* every ok response names the artifact generation that served it; a
     change mid-stream means earlier predictions on this connection came
     from a different model — worth a warning, not an error (the swap
     is exactly what the self-healing loop is for) *)
  let note_generation c resp =
    match Wire.member "gen" resp with
    | Some (Wire.Int g) ->
      (match c.last_gen with
       | Some g0 when g0 <> g ->
         Printf.eprintf
           "pathsel client: server artifact generation changed mid-stream \
            (%d -> %d); predictions before and after came from different \
            models\n%!"
           g0 g;
         c.last_gen <- Some g
       | Some _ -> ()
       | None -> c.last_gen <- Some g)
    | _ -> ()

  let generation c = c.last_gen

  let request ?(deadline = 30.0) c req =
    let dl = Unix.gettimeofday () +. deadline in
    c.due := dl;
    Wire.Writer.reset c.out;
    match
      Wire.Writer.json c.out req;
      Wire.Writer.add_char c.out '\n';
      Wire.Writer.flush c.out;
      read_line ~deadline:dl c
    with
    | Some line ->
      (match Wire.parse line with
       | Ok resp ->
         note_generation c resp;
         Ok resp
       | Error _ as e -> e)
    | None -> Error "connection closed by server"
    | exception Io.Timeout -> Error "timeout: no response within the deadline"
    | exception Io.Closed -> Error "short write: connection lost"
    | exception Oversized n ->
      Error (Printf.sprintf "oversized response line (%d bytes)" n)
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket error: %s" (Unix.error_message e))

  let ping ?deadline c =
    match request ?deadline c (Wire.Obj [ ("op", Wire.String "ping") ]) with
    | Ok resp -> Wire.member "ok" resp = Some (Wire.Bool true)
    | Error _ -> false

  let stats ?deadline c = request ?deadline c (Wire.Obj [ ("op", Wire.String "stats") ])

  let predict_request robust measured =
    Wire.Obj
      [
        ("op", Wire.String "predict");
        ("robust", Wire.Bool robust);
        ("dies", Wire.mat_to_json measured);
      ]

  (* the [Error] of an ["ok":false] response: the server's message, or
     a generic one naming what was refused *)
  let refused what resp =
    Error
      (match Wire.member "error" resp with
       | Some (Wire.String msg) -> msg
       | _ -> "server refused the " ^ what)

  let decode_predict resp =
    if Wire.member "ok" resp <> Some (Wire.Bool true) then refused "request" resp
    else begin
      match Wire.member "predictions" resp with
      | Some (Wire.List rows as preds) ->
        let cols =
          match rows with
          | Wire.Floats cells :: _ -> Array.length cells
          | Wire.List cells :: _ -> List.length cells
          | _ -> 0
        in
        (match Wire.mat_of_json ~cols preds with
         | Ok m -> Ok (m, resp)
         | Error msg -> Error ("bad predictions payload: " ^ msg))
      | _ -> Error "response carries no predictions"
    end

  let predict ?deadline c ?(robust = false) measured =
    match request ?deadline c (predict_request robust measured) with
    | Error msg -> Error msg
    | Ok resp -> decode_predict resp

  let observe ?deadline c ~measured ~truth =
    let req =
      Wire.Obj
        [
          ("op", Wire.String "observe");
          ("dies", Wire.mat_to_json measured);
          ("truth", Wire.mat_to_json truth);
        ]
    in
    match request ?deadline c req with
    | Error msg -> Error msg
    | Ok resp ->
      if Wire.member "ok" resp = Some (Wire.Bool true) then Ok resp
      else refused "observation batch" resp

  (* per-die verdicts from an observe ack: which dies fed the loop,
     which the screen quarantined, and whether the accepted ones are on
     durable storage *)
  let die_statuses resp =
    match Wire.member "die_status" resp with
    | Some (Wire.List l) ->
      List.filter_map (function Wire.String s -> Some s | _ -> None) l
    | _ -> []

  (* ---------------- decision ops ---------------- *)

  let yield_request ?samples ?seed ?(meth = `Is) ?t_cons () =
    let opt name f v =
      match v with None -> [] | Some x -> [ (name, f x) ]
    in
    Wire.Obj
      ([
         ("op", Wire.String "yield");
         ("method", Wire.String (match meth with `Is -> "is" | `Mc -> "mc"));
       ]
      @ opt "samples" (fun n -> Wire.Int n) samples
      @ opt "seed" (fun n -> Wire.Int n) seed
      @ opt "t_cons" (fun x -> Wire.Float x) t_cons)

  let tune_request ?t_clk ~buffers ~measured () =
    Wire.Obj
      ([
         ("op", Wire.String "tune");
         ("buffers", buffers_to_json buffers);
         ("dies", Wire.mat_to_json measured);
       ]
      @
      match t_clk with None -> [] | Some x -> [ ("t_clk", Wire.Float x) ])

  let tune ?deadline ?t_clk ~buffers ~measured c =
    match request ?deadline c (tune_request ?t_clk ~buffers ~measured ()) with
    | Error msg -> Error msg
    | Ok resp ->
      if Wire.member "ok" resp = Some (Wire.Bool true) then Ok resp
      else refused "tune request" resp

  let shutdown c =
    match request c (Wire.Obj [ ("op", Wire.String "shutdown") ]) with
    | Ok _ | Error _ -> ()

  (* ---------------- retries ---------------- *)

  type retry = {
    attempts : int;
    base_delay : float;
    max_delay : float;
    connect_timeout : float;
    deadline : float;
  }

  let default_retry =
    {
      attempts = 5;
      base_delay = 0.05;
      max_delay = 2.0;
      connect_timeout = 5.0;
      deadline = 30.0;
    }

  (* Retry only what is safe to retry: transport failures (the server
     may never have seen the request — and predictions are idempotent
     anyway) and infrastructure responses, whose string [code] says the
     request was shed before being served whole. Semantic errors carry
     a numeric code and retrying them would just repeat the answer. *)
  let retryable_response resp =
    match Wire.member "ok" resp with
    | Some (Wire.Bool false) ->
      (match Wire.member "code" resp with
       | Some (Wire.String _) -> true
       | _ -> false)
    | _ -> false

  let request_with_retry ?(retry = default_retry) ?rng addr req =
    if retry.attempts < 1 then
      invalid_arg "Client.request_with_retry: attempts < 1";
    let rng =
      match rng with Some r -> r | None -> Rng.create 0x5eed (* deterministic default *)
    in
    let rec go attempt prev_sleep =
      let result =
        match connect ~retries:0 ~timeout:retry.connect_timeout addr with
        | c ->
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () -> request ~deadline:retry.deadline c req)
        | exception Io.Timeout -> Error "connect timeout"
        | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect: %s" (Unix.error_message e))
      in
      let try_again =
        match result with Error _ -> true | Ok resp -> retryable_response resp
      in
      if (not try_again) || attempt >= retry.attempts then result
      else begin
        (* exponential backoff with decorrelated jitter:
           sleep ~ U(base, 3 * previous sleep), capped at max_delay *)
        let hi =
          Float.max retry.base_delay (Float.min retry.max_delay (prev_sleep *. 3.0))
        in
        let sleep = Rng.uniform rng retry.base_delay hi in
        Unix.sleepf sleep;
        go (attempt + 1) sleep
      end
    in
    go 1 retry.base_delay

  let predict_with_retry ?retry ?rng addr ?(robust = false) measured =
    match request_with_retry ?retry ?rng addr (predict_request robust measured) with
    | Error msg -> Error msg
    | Ok resp -> decode_predict resp
end
