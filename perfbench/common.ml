(* What every workload shares: the metric lists, output-check
   accounting, the closed-loop timing window, and process facts read
   from /proc. *)

(* The metric lists of BENCHMARK.json, in its order; the self-test
   compares the two. Every workload reports every metric: a per-layer
   metric reads 0 on a workload that never enters the layer. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("success_rate", "ratio");
    ("selected_paths", "count");
    ("selection_error", "ratio");
  ]

let per_layer =
  [
    ("pipeline.prepare_ms", "ms");
    ("pipeline.select_ms", "ms");
    ("select.evaluations", "count");
    ("svd.factor_ms", "ms");
    ("pipeline.evaluate_ms", "ms");
    ("pool_stream.build_ms", "ms");
    ("sketch.total_ms", "ms");
    ("sparse.op_ms", "ms");
    ("sketch.self_ms", "ms");
    ("rsvd.op_calls", "count");
    ("rsvd.op_cols", "count");
    ("sparse.op_flops", "count");
    ("rsvd.sketch_rank", "count");
    ("serve.boot_ms", "ms");
    ("store.load_ms", "ms");
    ("transport_ms", "ms");
    ("serve.handle_ms", "ms");
    ("wire.frame_ms", "ms");
    ("wire.parse_ms", "ms");
    ("wire.decode_ms", "ms");
    ("predictor.apply_ms", "ms");
    ("robust.apply_ms", "ms");
    ("wire.encode_ms", "ms");
    ("wal.append_ms", "ms");
    ("wire.request_bytes", "bytes");
    ("wire.response_bytes", "bytes");
    ("serve.shed", "count");
    ("serve.timeouts", "count");
    ("monitor.observed", "count");
    ("durability.journaled", "count");
    ("trace.op_p50_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("trace.parts_over_handle", "ratio");
  ]

(* the paper's Table-1 tolerance, for every selection the workloads run *)
let eps = 0.05

(* ---- output checks *)

(* name -> times run; a check that runs and fails is reported and makes
   the run incorrect *)
let checks_run : (string, int) Hashtbl.t = Hashtbl.create 16
let check_failures = ref 0

let check name ok =
  Hashtbl.replace checks_run name
    (1 + Option.value ~default:0 (Hashtbl.find_opt checks_run name));
  if not ok then begin
    incr check_failures;
    Printf.eprintf "perfbench: output check %s FAILED\n%!" name
  end;
  ok

let reset_checks () =
  Hashtbl.reset checks_run;
  check_failures := 0

let bits_equal m1 m2 =
  Linalg.Mat.dims m1 = Linalg.Mat.dims m2
  &&
  let r, c = Linalg.Mat.dims m1 in
  let same = ref true in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if
        Int64.bits_of_float (Linalg.Mat.get m1 i j)
        <> Int64.bits_of_float (Linalg.Mat.get m2 i j)
      then same := false
    done
  done;
  !same

(* ---- statistics *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- the timed window *)

type window = {
  lat_ms : float list;  (** one entry per completed op, in order *)
  cal_ms : float list;  (** [lat_ms] scaled to the host's full speed (Calib) *)
  op_ids : int list;  (** ids of the ops timed *)
  items : int;  (** dies or paths the successful ops processed *)
  attempted : int;
  failed : int;
  elapsed_s : float;  (** the window's length, calibrations left out *)
}

exception Abort of string
(** Raised by an op when the run cannot go on (a dead server): the op
    counts as failed and the window ends. *)

(* a calibration is taken before the first op, after the last, and
   after any op that ends this long after the previous calibration *)
let calib_every_s = 0.25

(* Closed loop: the next op starts when the previous one has returned.
   [op id] returns the items it processed, or [None] when one of its
   output checks failed. Ops are numbered from [first_id]. Calibration
   time is outside every op and is not counted in [elapsed_s]. *)
let run_window ~seconds ~first_id op =
  let cals = ref [] and last_cal = ref 0.0 and paused = ref 0.0 in
  let calibrate () =
    let t = Trace.now () in
    let c = Calib.measure () in
    last_cal := Trace.now ();
    cals := ((t +. !last_cal) /. 2.0, c) :: !cals;
    paused := !paused +. (!last_cal -. t)
  in
  let t0 = Trace.now () in
  calibrate ();
  let timed = ref [] and ids = ref [] in
  let items = ref 0 and attempted = ref 0 and failed = ref 0 in
  let stop = ref false in
  while (not !stop) && Trace.now () -. t0 -. !paused < seconds do
    let id = first_id + !attempted in
    incr attempted;
    Trace.set_op id;
    let s = Trace.now () in
    (match op id with
     | Some n -> items := !items + n
     | None -> incr failed
     | exception Abort msg ->
       Printf.eprintf "perfbench: op %d aborted the run: %s\n%!" id msg;
       incr failed;
       stop := true);
    let e = Trace.now () in
    timed := (s, e) :: !timed;
    ids := id :: !ids;
    if e -. !last_cal >= calib_every_s then calibrate ()
  done;
  let elapsed_s = Trace.now () -. t0 -. !paused in
  (match !timed with (_, e) :: _ when !last_cal < e -> calibrate () | _ -> ());
  let timed = List.rev !timed in
  {
    lat_ms = List.map (fun (s, e) -> 1000.0 *. (e -. s)) timed;
    cal_ms =
      List.map (fun (s, e) -> 1000.0 *. (e -. s) *. Calib.factor !cals ~from:s ~until:e) timed;
    op_ids = List.rev !ids;
    items = !items;
    attempted = !attempted;
    failed = !failed;
    elapsed_s;
  }

(* the human-readable latency line on stderr; a tail quantile is shown
   only with at least ten samples beyond it *)
let latency_line ~unit_ (w : window) =
  let l = w.lat_ms and n = List.length w.lat_ms in
  Printf.sprintf
    "op latency over %d ops (ms): min %.3f p10 %.3f p50 %.3f%s max %.3f mean %.3f, \
     calibrated mean %.3f p50 %.3f; %.1f %s per second"
    n (quantile 0.0 l) (quantile 0.1 l) (median l)
    (if n >= 100 then Printf.sprintf " p90 %.3f" (quantile 0.9 l) else "")
    (quantile 1.0 l) (mean l) (mean w.cal_ms) (median w.cal_ms)
    (float_of_int w.items /. w.elapsed_s)
    unit_

(* ---- /proc *)

(* VmHWM (peak resident set) of [pid], in MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* Filesystem type of the mount holding [dir] (longest mount-point
   prefix in /proc/self/mounts). *)
let fs_type dir =
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  let is_prefix p =
    p = "/"
    || (String.length dir >= String.length p
       && String.sub dir 0 (String.length p) = p
       && (String.length dir = String.length p || dir.[String.length p] = '/'))
  in
  match open_in "/proc/self/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let best = ref ("", "unknown") in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | _ :: mnt :: fs :: _ ->
           if is_prefix mnt && String.length mnt >= String.length (fst !best) then
             best := (mnt, fs)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    snd !best

(* ---- scratch space inside the checkout *)

let scratch_root = ".perfbench_tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* ---- results *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  summary : string list;  (** human-readable lines for stderr *)
}

(* The run shape every workload shares: [setups] set-ups, each timed
   from its start to the end of its warm-up, all but the last torn down
   again; then the timed window on the last one. A traced run splits
   the window into an untraced half and a traced half, so the tracing
   overhead is measured on the same set-up; its set-ups are traced too,
   since some layers (artifact build, server boot) only run there. *)
let drive ~setups ~seconds ~traced ~setup ~teardown ~op =
  if traced then Trace.set_enabled true;
  let setup_s = ref [] and state = ref None in
  for i = 1 to setups do
    Option.iter teardown !state;
    Trace.set_op (-i);
    let before = Calib.measure () in
    let t0 = Trace.now () in
    let st = setup i in
    let t1 = Trace.now () in
    let cals = [ (t0, before); (t1, Calib.measure ()) ] in
    setup_s := ((t1 -. t0) *. Calib.factor cals ~from:t0 ~until:t1) :: !setup_s;
    state := Some st
  done;
  let st = Option.get !state in
  if traced then begin
    Trace.set_enabled false;
    let plain = run_window ~seconds:(seconds /. 2.0) ~first_id:0 (op st) in
    Trace.set_enabled true;
    let tr = run_window ~seconds:(seconds /. 2.0) ~first_id:plain.attempted (op st) in
    (st, !setup_s, plain, Some tr)
  end
  else (st, !setup_s, run_window ~seconds ~first_id:0 (op st), None)

let setup_ids setups = List.init setups (fun i -> -(i + 1))

(* An untraced run's result: the end-to-end metrics, in [end_to_end]
   order. *)
let end_to_end_result ~attempted ~failed ~setup_s ~(window : window) ~rss ~selected ~error
    ~summary =
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", median setup_s);
        ("op_p50_ms", median window.cal_ms);
        ("peak_rss_mb", rss);
        ("success_rate", float_of_int (attempted - failed) /. float_of_int attempted);
        ("selected_paths", float_of_int selected);
        ("selection_error", error);
      ];
    summary;
  }

(* A traced run's result: every per-layer metric, 0 unless the workload
   enters the layer, plus the tracing overhead between the halves. *)
let per_layer_result ~attempted ~failed ~(plain : window) ~(traced : window) ~summary values =
  let values =
    values
    @ [
        ("trace.op_p50_ms", median traced.cal_ms);
        ("trace.overhead_ms", median traced.cal_ms -. median plain.cal_ms);
      ]
  in
  {
    attempted;
    failed;
    metrics =
      List.map (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n values))) per_layer;
    summary;
  }
