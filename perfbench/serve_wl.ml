(* The two serving workloads: the time to serve one batch from a
   prediction server running in its own exec'd process.

   serve_predict sends predict batches; most of a response's time is
   its encoding. serve_fleet pairs an observe batch (journaled to the
   WAL and fsynced before the ack) with a predict batch on the same
   connection; request parsing, the WAL and monitor intake dominate.

   The load generator stays out of the way: every request line is
   printed once in set-up, the timed loop only writes bytes and frames
   response lines over one raw connection, and a response byte-equal to
   one already verified is accepted by comparing bytes. *)

open Common
module Wire = Serve.Wire

type size = {
  served : string;
  served_scale : float;
  served_cap : int;
  yield_samples : int;
  predict_dies : int;  (** dies per serve_predict batch *)
  fleet_dies : int;  (** dies per serve_fleet observe and predict batch *)
  distinct : int;  (** distinct ops, cycled through by the timed loop *)
}

type kind = Predict | Fleet

let workers = 2
let io_timeout = 30.0

(* Drift thresholds out of reach: the healthy die stream never triggers
   a re-selection, so every op does the same work. *)
let monitor_config =
  {
    Serve.Monitor.default_config with
    Serve.Monitor.drift =
      { Stats.Drift.default_config with Stats.Drift.warn = 1e6; drift = 1e9; var_ratio = 1e9 };
  }

let server_config ~workers ~wal_dir =
  {
    Serve.default_config with
    Serve.workers;
    monitor = Option.map (fun _ -> monitor_config) wal_dir;
    durability = Option.map (fun d -> { Serve.default_durability with Serve.wal_dir = d }) wal_dir;
  }

(* ---- the exec'd server *)

let serve_main ~artifact ~socket ~domains ~workers ~wal_dir =
  Par.Pool.set_size domains;
  match Store.load artifact with
  | Error e ->
    prerr_endline ("perfbench server: " ^ Core.Errors.to_string e);
    exit 70
  | Ok a ->
    Serve.run ~config:(server_config ~workers ~wal_dir) a (Serve.Unix_sock socket);
    exit 0

(* ---- child processes *)

let live = ref []

let child_env () =
  let pinned kv =
    List.exists
      (fun p -> String.starts_with ~prefix:p kv)
      [ "PATHSEL_DOMAINS="; "OCAMLRUNPARAM=" ]
  in
  Array.of_list (List.filter (fun kv -> not (pinned kv)) (Array.to_list (Unix.environment ())))

let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process_env Sys.executable_name argv (child_env ()) Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  pid

(* wait up to [grace] seconds for [pid] to exit, then SIGKILL it *)
let reap ?(grace = 10.0) pid =
  let deadline = Trace.now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Trace.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ---- the client side of one connection *)

type conn = { fd : Unix.file_descr; framer : Wire.Framer.t; buf : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Serve.Io.connect fd (Unix.ADDR_UNIX path) ~timeout:5.0 with
  | () -> { fd; framer = Wire.Framer.create (); buf = Bytes.create 65536 }
  | exception e ->
    Unix.close fd;
    raise e

let roundtrip c bytes =
  let deadline = Trace.now () +. io_timeout in
  let rec next () =
    match Wire.Framer.pop c.framer with
    | Some (Wire.Framer.Line l) -> l
    | Some (Wire.Framer.Too_long n) ->
      raise (Abort (Printf.sprintf "a %d-byte response line is over the cap" n))
    | None ->
      let left = deadline -. Trace.now () in
      if left <= 0.0 then raise (Abort "no response within the deadline");
      (match Serve.Io.read c.fd c.buf 0 (Bytes.length c.buf) ~timeout:left with
       | Serve.Io.Data n ->
         Wire.Framer.feed c.framer c.buf 0 n;
         next ()
       | Serve.Io.Eof -> raise (Abort "the server closed the connection")
       | Serve.Io.Read_timeout -> raise (Abort "no response within the deadline"))
  in
  match Serve.Io.write_all c.fd bytes ~timeout:io_timeout with
  | () -> next ()
  | exception (Serve.Io.Timeout | Serve.Io.Closed) -> raise (Abort "request write failed")

let control op = Wire.print (Wire.Obj [ ("op", Wire.String op) ]) ^ "\n"

let parse_ok line =
  match Wire.parse line with
  | Ok j when Wire.member "ok" j = Some (Wire.Bool true) -> Some j
  | Ok _ | Error _ -> None

let int_at path j =
  let rec go j = function
    | [] -> (match j with Wire.Int n -> n | _ -> 0)
    | k :: rest -> (match Wire.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

(* connect once the server listens, and ping it *)
let boot pid sock =
  let deadline = Trace.now () +. 60.0 in
  let rec go () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when Trace.now () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "the server exited during boot");
      Unix.sleepf 0.002;
      go ()
  in
  let c = go () in
  if not (check "server.ping" (parse_ok (roundtrip c (control "ping")) <> None)) then
    failwith "the server did not answer ping";
  c

(* ---- requests, encoded once in set-up *)

type request = {
  line : string;  (** the request line *)
  bytes : string;  (** the line with its terminator, as sent *)
  verify : string -> bool;  (** full check of a response line *)
  mutable seen : string list;  (** response lines verified already *)
  dies : int;
  acks : int;  (** dies an ok response journals *)
  layers : unit -> unit;  (** the handler's layers, replayed in process *)
}

let has_nan m =
  let r, c = Linalg.Mat.dims m in
  let found = ref false in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Float.is_nan (Linalg.Mat.get m i j) then found := true
    done
  done;
  !found

let frame bytes =
  Trace.span "wire.frame" (fun () ->
      let b = Bytes.unsafe_of_string bytes in
      let f = Wire.Framer.create () in
      Wire.Framer.feed f b 0 (Bytes.length b);
      match Wire.Framer.pop f with Some (Wire.Framer.Line l) -> l | _ -> failwith "frame")

let parse line =
  Trace.span "wire.parse" (fun () ->
      match Wire.parse line with Ok j -> j | Error e -> failwith e)

let decode j key ~cols =
  match Wire.member key j with
  | Some v -> (match Wire.mat_of_json ~cols v with Ok m -> m | Error e -> failwith e)
  | None -> failwith ("no " ^ key)

let encode fields =
  ignore (Trace.span "wire.encode" (fun () -> Wire.print (Wire.Obj (fields ()))))

let ok_fields op rest =
  ("ok", Wire.Bool true) :: ("op", Wire.String op) :: ("gen", Wire.Int 1) :: rest

let predict_request ~predictor ~robust measured =
  let n, r = Linalg.Mat.dims measured in
  let routed = has_nan measured in
  let expected =
    if routed then (Core.Robust.predict_all robust ~measured).Core.Robust.predicted
    else Core.Predictor.predict_all predictor ~measured
  in
  let line =
    Wire.print
      (Wire.Obj
         [
           ("op", Wire.String "predict");
           ("robust", Wire.Bool false);
           ("dies", Wire.mat_to_json measured);
         ])
  in
  let verify resp =
    let j = parse_ok resp in
    check "predict.ok" (j <> None)
    &&
    let j = Option.get j in
    check "predict.route" (Wire.member "robust" j = Some (Wire.Bool routed))
    && check "predict.bit_exact"
         (match Wire.member "predictions" j with
          | Some p ->
            (match Wire.mat_of_json ~cols:(snd (Linalg.Mat.dims expected)) p with
             | Ok m -> bits_equal m expected
             | Error _ -> false)
          | None -> false)
  in
  (* the server's predict handler, layer by layer *)
  let layers () =
    let j = parse (frame (line ^ "\n")) in
    let measured = Trace.span "wire.decode" (fun () -> decode j "dies" ~cols:r) in
    let extra, predicted =
      if has_nan measured then
        Trace.span "robust.apply" (fun () ->
            let pr = Core.Robust.predict_all robust ~measured in
            let s = pr.Core.Robust.screened in
            ( [
                ("robust", Wire.Bool true);
                ( "screen",
                  Wire.Obj
                    [
                      ("missing", Wire.Int s.Core.Robust.missing);
                      ("outliers", Wire.Int s.Core.Robust.outliers);
                      ("resolves", Wire.Int pr.Core.Robust.resolves);
                      ("ridge_fallbacks", Wire.Int pr.Core.Robust.ridge_fallbacks);
                      ("dead_dies", Wire.Int pr.Core.Robust.dead_dies);
                    ] );
              ],
              pr.Core.Robust.predicted ))
      else
        Trace.span "predictor.apply" (fun () ->
            ([ ("robust", Wire.Bool false) ], Core.Predictor.predict_all predictor ~measured))
    in
    encode (fun () ->
        ok_fields "predict"
          ((("dies", Wire.Int n) :: extra) @ [ ("predictions", Wire.mat_to_json predicted) ]))
  in
  { line; bytes = line ^ "\n"; verify; seen = []; dies = n; acks = 0; layers }

let observe_request ~predictor ~robust ~wal measured truth =
  let n, r = Linalg.Mat.dims measured in
  let m = snd (Linalg.Mat.dims truth) in
  let line =
    Wire.print
      (Wire.Obj
         [
           ("op", Wire.String "observe");
           ("dies", Wire.mat_to_json measured);
           ("truth", Wire.mat_to_json truth);
         ])
  in
  let verify resp =
    let j = parse_ok resp in
    check "observe.ok" (j <> None)
    &&
    let j = Option.get j in
    check "observe.journaled" (Wire.member "journaled" j = Some (Wire.Bool true))
    && check "observe.queued_all" (int_at [ "queued" ] j = n)
  in
  (* the server's observe handler, layer by layer; the journal write
     goes to a scratch WAL on the same filesystem *)
  let layers () =
    let j = parse (frame (line ^ "\n")) in
    let measured, truth =
      Trace.span "wire.decode" (fun () -> (decode j "dies" ~cols:r, decode j "truth" ~cols:m))
    in
    let screen = Trace.span "robust.apply" (fun () -> Core.Robust.screen robust ~measured) in
    let obs =
      Trace.span "predictor.apply" (fun () ->
          let pred = Core.Predictor.predict_all predictor ~measured in
          let rep = Core.Predictor.rep_indices predictor in
          let rem = Core.Predictor.rem_indices predictor in
          List.filter_map
            (fun i ->
              if not (Array.for_all Fun.id screen.Core.Robust.mask.(i)) then None
              else begin
                let m_row = Linalg.Mat.row measured i and t_row = Linalg.Mat.row truth i in
                let full = Array.make (r + m) 0.0 in
                Array.iteri (fun k p -> full.(p) <- m_row.(k)) rep;
                Array.iteri (fun k p -> full.(p) <- t_row.(k)) rem;
                let resid = ref 0.0 in
                for k = 0 to m - 1 do
                  resid := !resid +. (t_row.(k) -. Linalg.Mat.get pred i k)
                done;
                Some
                  {
                    Serve.Monitor.measured = m_row;
                    truth = t_row;
                    full;
                    resid = !resid /. float_of_int m;
                    wafer = "";
                  }
              end)
            (List.init n Fun.id))
    in
    encode (fun () ->
        ok_fields "observe"
          [
            ("dies", Wire.Int n);
            ("queued", Wire.Int (List.length obs));
            ("screened", Wire.Int (n - List.length obs));
            ("journaled", Wire.Bool true);
            ("die_status", Wire.List (List.init n (fun _ -> Wire.String "used")));
          ]);
    Trace.span "wal.append" (fun () ->
        match Store.Wal.append (Lazy.force wal) (List.map Serve.Durable.encode_obs obs) with
        | Ok _ -> ()
        | Error e -> failwith (Core.Errors.to_string e))
  in
  { line; bytes = line ^ "\n"; verify; seen = []; dies = n; acks = n; layers }

(* The distinct ops, from the seed's Monte-Carlo dies. serve_predict:
   one batch per op, every 4th with ~5% missing entries (the robust
   route). serve_fleet: an observe batch, then a predict batch; observe
   batches are drawn until the MAD screen passes every die (a small
   batch of healthy dies can still trip it), so every observed die is
   journaled and the work per op is the same. *)
let build_ops kind size ~seed ~wal pool artifact =
  let predictor = Store.predictor artifact and robust = Store.robust artifact in
  let rep = Core.Predictor.rep_indices predictor in
  let rem = Core.Predictor.rem_indices predictor in
  let rng = Rng.create seed in
  let draw n =
    Timing.Monte_carlo.path_delays (Timing.Monte_carlo.sample (Rng.split rng) pool ~n)
  in
  let cols delays idx =
    Linalg.Mat.init (fst (Linalg.Mat.dims delays)) (Array.length idx) (fun i j ->
        Linalg.Mat.get delays i idx.(j))
  in
  let rec clean_batch n =
    let delays = draw n in
    let measured = cols delays rep in
    let s = Core.Robust.screen robust ~measured in
    if Array.for_all (Array.for_all Fun.id) s.Core.Robust.mask then (measured, cols delays rem)
    else clean_batch n
  in
  Array.init size.distinct (fun b ->
      match kind with
      | Predict ->
        let m = cols (draw size.predict_dies) rep in
        if b mod 4 = 3 then begin
          let n, r = Linalg.Mat.dims m in
          for _ = 1 to max 1 (n * r / 20) do
            Linalg.Mat.set m (Rng.int rng n) (Rng.int rng r) Float.nan
          done
        end;
        [ predict_request ~predictor ~robust m ]
      | Fleet ->
        let measured, truth = clean_batch size.fleet_dies in
        [
          observe_request ~predictor ~robust ~wal measured truth;
          predict_request ~predictor ~robust (cols (draw size.fleet_dies) rep);
        ])

(* one closed-loop op: its requests in order on the one connection *)
let run_op conn acked reqs =
  let ok =
    List.fold_left
      (fun ok req ->
        let resp = Trace.span "client.request" (fun () -> roundtrip conn req.bytes) in
        Trace.count "wire.request_bytes" (float_of_int (String.length req.bytes));
        Trace.count "wire.response_bytes" (float_of_int (String.length resp + 1));
        let good =
          if List.exists (String.equal resp) req.seen then check "response.cached_bytes" true
          else if req.verify resp then begin
            req.seen <- resp :: req.seen;
            true
          end
          else false
        in
        if good then acked := !acked + req.acks;
        ok && good)
      true reqs
  in
  if ok then Some (List.fold_left (fun n r -> n + r.dies) 0 reqs) else None

(* ---- set-up: artifact, server, warm-up *)

type server = {
  pid : int;
  conn : conn;
  dir : string;
  art_path : string;
  artifact : Store.t;
  ops : request list array;
  acked : int ref;  (** dies the server acked as journaled *)
  warm_failed : int;
  scratch_wal : Store.Wal.t Lazy.t;
}

let build_artifact size =
  let preset =
    match Circuit.Benchmarks.find size.served with
    | Some p -> p
    | None -> invalid_arg ("unknown circuit preset " ^ size.served)
  in
  let netlist = Circuit.Benchmarks.netlist ~scale:size.served_scale preset in
  let model = Timing.Variation.make_model ~levels:preset.Circuit.Benchmarks.region_levels () in
  let setup =
    Trace.span "pipeline.prepare" (fun () ->
        Core.Pipeline.prepare ~max_paths:size.served_cap ~yield_samples:size.yield_samples
          ~netlist ~model ())
  in
  let sel =
    Trace.span "pipeline.select" (fun () ->
        Core.Pipeline.approximate_selection ~engine:Core.Select.Sketched setup ~eps)
  in
  Trace.count "select.evaluations" (float_of_int sel.Core.Select.evaluations);
  let pool = setup.Core.Pipeline.pool in
  ( pool,
    Store.of_selection ~fingerprint:("perfbench " ^ size.served)
      ~n_segments:(Timing.Paths.num_segments pool) ~t_cons:setup.Core.Pipeline.t_cons ~eps
      ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) sel )

let setup kind size ~seed ~domains i =
  let dir = Printf.sprintf "%s/%d/setup%d" scratch_root (Unix.getpid ()) i in
  mkdir_p dir;
  let pool, artifact = build_artifact size in
  let art_path = Filename.concat dir "artifact.psa" in
  (match Store.save art_path artifact with
   | Ok () -> ()
   | Error e -> failwith (Core.Errors.to_string e));
  let sock = Filename.concat dir "s.sock" in
  let wal_args =
    match kind with Fleet -> [ "--wal-dir"; Filename.concat dir "wal" ] | Predict -> []
  in
  let pid, conn =
    Trace.span "serve.boot" (fun () ->
        let pid =
          spawn
            ([
               "--serve"; art_path; "--socket"; sock; "--domains"; string_of_int domains;
               "--workers"; string_of_int workers;
             ]
            @ wal_args)
        in
        (pid, boot pid sock))
  in
  let scratch_wal =
    lazy
      (match Store.Wal.open_ (Filename.concat dir "scratch-wal") with
       | Ok w -> w
       | Error e -> failwith (Core.Errors.to_string e))
  in
  let ops = build_ops kind size ~seed ~wal:scratch_wal pool artifact in
  (* warm-up: each distinct op once, every response fully verified *)
  let acked = ref 0 in
  let warm_failed =
    Array.fold_left
      (fun n reqs -> if run_op conn acked reqs = None then n + 1 else n)
      0 ops
  in
  { pid; conn; dir; art_path; artifact; ops; acked; warm_failed; scratch_wal }

let shutdown srv =
  (try ignore (roundtrip srv.conn (control "shutdown")) with Abort _ -> ());
  Unix.close srv.conn.fd;
  reap srv.pid

let cleanup srv =
  if Lazy.is_val srv.scratch_wal then Store.Wal.close (Lazy.force srv.scratch_wal);
  rm_rf srv.dir

let stop srv =
  shutdown srv;
  cleanup srv

(* Final server counters. serve_fleet waits until the monitor has taken
   in everything journaled, then checks both against the acked total. *)
let final_stats kind srv =
  let deadline = Trace.now () +. 10.0 in
  let rec poll () =
    match parse_ok (roundtrip srv.conn (control "stats")) with
    | None -> raise (Abort "stats refused")
    | Some j ->
      let journaled = int_at [ "durability"; "journaled" ] j in
      let taken = int_at [ "monitor"; "observed" ] j + int_at [ "monitor"; "skipped" ] j in
      if kind = Fleet && taken < journaled && Trace.now () < deadline then begin
        Unix.sleepf 0.02;
        poll ()
      end
      else j
  in
  let j = poll () in
  let ok =
    match kind with
    | Predict -> true
    | Fleet ->
      let journaled = check "stats.journaled_equals_acked"
          (int_at [ "durability"; "journaled" ] j = !(srv.acked)) in
      let observed = check "stats.observed_equals_acked"
          (int_at [ "monitor"; "observed" ] j = !(srv.acked)) in
      journaled && observed
  in
  (j, ok)

(* In-process replay of the captured requests: Store.load, then each op
   through Serve.handle and through the handler's layers one by one. *)
let replay kind srv ~first_id =
  for k = 0 to 2 do
    Trace.set_op (first_id + k);
    ignore (Trace.span "store.load" (fun () -> Store.load srv.art_path))
  done;
  let wal_dir = match kind with Fleet -> Some (Filename.concat srv.dir "replay-wal") | Predict -> None in
  let t = Serve.create ~config:(server_config ~workers ~wal_dir) srv.artifact in
  let n = Array.length srv.ops in
  let ids = List.init (2 * n) (fun k -> first_id + 3 + k) in
  let mismatches = ref 0 in
  List.iteri
    (fun k id ->
      Trace.set_op id;
      List.iter
        (fun req ->
          let resp = Trace.span "serve.handle" (fun () -> Serve.handle t req.line) in
          if not (check "replay.same_bytes" (List.exists (String.equal resp) req.seen)) then
            incr mismatches;
          req.layers ())
        srv.ops.(k mod n))
    ids;
  ([ first_id; first_id + 1; first_id + 2 ], ids, !mismatches)

let run kind size ~setups ~seed ~seconds ~traced ~domains =
  let op srv id = run_op srv.conn srv.acked srv.ops.(id mod Array.length srv.ops) in
  let srv, setup_s, plain, tr =
    drive ~setups ~seconds ~traced ~setup:(setup kind size ~seed ~domains) ~teardown:stop ~op
  in
  let stats, stats_ok = final_stats kind srv in
  let rss = peak_rss_mb (string_of_int srv.pid) in
  let windows = plain :: Option.to_list tr in
  let attempted =
    List.fold_left (fun n (w : window) -> n + w.attempted) 0 windows + Array.length srv.ops
  in
  let failed =
    List.fold_left (fun n (w : window) -> n + w.failed) 0 windows
    + srv.warm_failed
    + if stats_ok then 0 else 1
  in
  let summary =
    [
      Printf.sprintf "%s: %s scale %.2f, %d paths, r = %d"
        (match kind with Predict -> "serve_predict" | Fleet -> "serve_fleet")
        size.served size.served_scale srv.artifact.Store.n_paths
        (Array.length srv.artifact.Store.selection.Core.Select.indices);
      latency_line ~unit_:"dies" plain;
    ]
  in
  shutdown srv;
  let result =
    match tr with
    | None ->
      end_to_end_result ~attempted ~failed ~setup_s ~window:plain ~rss
        ~selected:(Array.length srv.artifact.Store.selection.Core.Select.indices)
        ~error:srv.artifact.Store.selection.Core.Select.eps_r ~summary
    | Some tr ->
      let loads, replayed, mismatches =
        replay kind srv ~first_id:(plain.attempted + tr.attempted)
      in
      let ops = tr.op_ids in
      let at = Trace.mean_ms ~ops:replayed in
      let handle = at "serve.handle" in
      let parts =
        [
          ("wire.frame_ms", at "wire.frame");
          ("wire.parse_ms", at "wire.parse");
          ("wire.decode_ms", at "wire.decode");
          ("predictor.apply_ms", at "predictor.apply");
          ("robust.apply_ms", at "robust.apply");
          ("wire.encode_ms", at "wire.encode");
          ("wal.append_ms", at "wal.append");
        ]
      in
      let setups = setup_ids setups in
      per_layer_result ~attempted:(attempted + List.length replayed) ~failed:(failed + mismatches)
        ~plain ~traced:tr ~summary
        ([
           ("pipeline.prepare_ms", Trace.mean_ms ~ops:setups "pipeline.prepare");
           ("pipeline.select_ms", Trace.mean_ms ~ops:setups "pipeline.select");
           ("select.evaluations", Trace.mean_count ~ops:setups "select.evaluations");
           ("serve.boot_ms", Trace.mean_ms ~ops:setups "serve.boot");
           ("store.load_ms", Trace.mean_ms ~ops:loads "store.load");
           ("transport_ms", Trace.mean_ms ~ops "client.request" -. handle);
           ("serve.handle_ms", handle);
           ("wire.request_bytes", Trace.mean_count ~ops "wire.request_bytes");
           ("wire.response_bytes", Trace.mean_count ~ops "wire.response_bytes");
           ("serve.shed", float_of_int (int_at [ "shed" ] stats));
           ("serve.timeouts", float_of_int (int_at [ "timeouts" ] stats));
           ("monitor.observed", float_of_int (int_at [ "monitor"; "observed" ] stats));
           ("durability.journaled", float_of_int (int_at [ "durability"; "journaled" ] stats));
           ( "trace.parts_over_handle",
             List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts /. handle );
         ]
        @ parts)
  in
  cleanup srv;
  result
