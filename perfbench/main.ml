(* perfbench: end-to-end and per-layer benchmark of selection and
   serving. See README.md in this directory.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-test

   The last line of standard output is the result object; everything
   else goes to standard error. *)

open Common

(* Pinned pool size for the benchmark process and the server's
   --domains: the numbers must not depend on PATHSEL_DOMAINS. *)
let domains = 1

(* set-ups per run; setup_s is their median *)
let setups = 3

let select_full =
  {
    Select_wl.circuit = "s5378";
    circuit_scale = 0.5;
    circuit_cap = 250;
    yield_samples = 300;
    mc_samples = 1000;
    stream_paths = 2000;
    stream_segments = 500;
    stream_vars = 2000;
  }

let select_tiny =
  {
    Select_wl.circuit = "s1196";
    circuit_scale = 0.5;
    circuit_cap = 80;
    yield_samples = 100;
    mc_samples = 200;
    stream_paths = 1000;
    stream_segments = 100;
    stream_vars = 200;
  }

let serve_full =
  {
    Serve_wl.served = "s38417";
    served_scale = 0.10;
    served_cap = 2000;
    yield_samples = 300;
    predict_dies = 16;
    fleet_dies = 8;
    distinct = 8;
  }

let serve_tiny =
  { serve_full with Serve_wl.served = "s1196"; served_scale = 0.5; served_cap = 150; distinct = 4 }

let workloads = [ "select_circuit"; "select_stream"; "serve_predict"; "serve_fleet" ]

let run_workload ~tiny name ~seed ~seconds ~traced =
  Par.Pool.set_size domains;
  reset_checks ();
  Trace.reset ();
  Calib.taken := [];
  let sel = if tiny then select_tiny else select_full in
  let srv = if tiny then serve_tiny else serve_full in
  match name with
  | "select_circuit" -> Select_wl.run_circuit sel ~setups ~seed ~seconds ~traced
  | "select_stream" -> Select_wl.run_stream sel ~setups ~seed ~seconds ~traced
  | "serve_predict" -> Serve_wl.run Serve_wl.Predict srv ~setups ~seed ~seconds ~traced ~domains
  | "serve_fleet" -> Serve_wl.run Serve_wl.Fleet srv ~setups ~seed ~seconds ~traced ~domains
  | w -> invalid_arg ("unknown workload " ^ w)

let environment () =
  Printf.sprintf
    "nproc %d, pool size %d, server --domains %d --workers %d, OCaml %s, scratch and WAL \
     filesystem %s"
    (Par.Pool.available_cores ()) (Par.Pool.size ()) domains Serve_wl.workers
    Sys.ocaml_version (fs_type ".")

let correct r = r.failed = 0 && !check_failures = 0

let result_json ~traced r =
  let units = if traced then per_layer else end_to_end in
  Serve.Wire.Obj
    [
      ("correct", Serve.Wire.Bool (correct r));
      ("attempted", Serve.Wire.Int r.attempted);
      ("failed", Serve.Wire.Int (max r.failed (min 1 !check_failures)));
      ( "metrics",
        Serve.Wire.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Serve.Wire.Obj
                   [ ("value", Serve.Wire.Float v); ("unit", Serve.Wire.String (List.assoc name units)) ]
               ))
             r.metrics) );
    ]

let cleanup () =
  Serve_wl.kill_all ();
  rm_rf (Filename.concat scratch_root (string_of_int (Unix.getpid ())));
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

(* ---- self-test: every workload at a tiny size, both modes *)

let expected_checks = function
  | "select_circuit" ->
    [ "circuit.eps_r_within_eps"; "circuit.indices_equal_warmup"; "circuit.evaluation_finite" ]
  | "select_stream" -> [ "stream.tail_within_eta2"; "stream.indices_equal_warmup" ]
  | "serve_predict" ->
    [ "server.ping"; "predict.ok"; "predict.route"; "predict.bit_exact";
      "response.cached_bytes"; "replay.same_bytes" ]
  | _ ->
    [ "server.ping"; "observe.ok"; "observe.journaled"; "observe.queued_all"; "predict.ok";
      "predict.route"; "predict.bit_exact"; "response.cached_bytes";
      "stats.journaled_equals_acked"; "stats.observed_equals_acked"; "replay.same_bytes" ]

(* the metric lists of BENCHMARK.json, as (name, unit) pairs *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Serve.Wire.parse text with
  | Ok j ->
    (match Serve.Wire.member key j with
     | Some (Serve.Wire.List ms) ->
       List.map
         (fun m ->
           match (Serve.Wire.member "name" m, Serve.Wire.member "unit" m) with
           | Some (Serve.Wire.String n), Some (Serve.Wire.String u) -> (n, u)
           | _ -> failwith ("malformed metric in " ^ key))
         ms
     | _ -> failwith ("BENCHMARK.json has no " ^ key))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let self_test () =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.eprintf "self-test: FAILED %s\n%!" what
    end
  in
  expect "end_to_end list matches BENCHMARK.json" (declared "end_to_end" = end_to_end);
  expect "per_layer list matches BENCHMARK.json" (declared "per_layer" = per_layer);
  List.iter
    (fun w ->
      let ran = Hashtbl.create 16 in
      List.iter
        (fun traced ->
          let r = run_workload ~tiny:true w ~seed:1 ~seconds:0.5 ~traced in
          Hashtbl.iter (fun k _ -> Hashtbl.replace ran k ()) checks_run;
          let mode = if traced then "trace 1" else "trace 0" in
          let printed =
            match Serve.Wire.parse (Serve.Wire.print (result_json ~traced r)) with
            | Ok j -> j
            | Error e -> failwith e
          in
          List.iter
            (fun (name, unit_) ->
              let m = Option.bind (Serve.Wire.member "metrics" printed) (Serve.Wire.member name) in
              let value = Option.bind m (Serve.Wire.member "value") in
              expect
                (Printf.sprintf "%s (%s): %s prints a finite value" w mode name)
                (match value with
                 | Some (Serve.Wire.Float v) -> Float.is_finite v
                 | Some (Serve.Wire.Int _) -> true
                 | _ -> false);
              expect
                (Printf.sprintf "%s (%s): %s prints unit %s" w mode name unit_)
                (Option.bind m (Serve.Wire.member "unit") = Some (Serve.Wire.String unit_)))
            (if traced then per_layer else end_to_end);
          expect
            (Printf.sprintf "%s (%s): every metric printed once" w mode)
            (List.map fst r.metrics = List.map fst (if traced then per_layer else end_to_end));
          expect (Printf.sprintf "%s (%s): correct" w mode) (correct r))
        [ false; true ];
      List.iter
        (fun c -> expect (Printf.sprintf "%s: check %s ran" w c) (Hashtbl.mem ran c))
        (expected_checks w);
      Printf.eprintf "self-test: %s done\n%!" w)
    workloads;
  if !failures = 0 then print_endline "self-test: ok"
  else Printf.printf "self-test: %d failures\n" !failures;
  !failures = 0

(* ---- command line *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [ "--self-test" ] -> ("--self-test", "") :: acc
    | [] -> acc
    | a :: _ ->
      Printf.eprintf "perfbench: unexpected argument %s\n" a;
      exit 64
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int k = Option.map int_of_string (get k) in
  match get "--serve" with
  | Some artifact ->
    Serve_wl.serve_main ~artifact
      ~socket:(Option.get (get "--socket"))
      ~domains:(Option.value ~default:domains (int "--domains"))
      ~workers:(Option.value ~default:Serve_wl.workers (int "--workers"))
      ~wal_dir:(get "--wal-dir")
  | None ->
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    at_exit cleanup;
    if get "--self-test" <> None then exit (if self_test () then 0 else 1);
    let workload, seed, seconds, trace =
      match (get "--workload", int "--seed", get "--seconds", int "--trace") with
      | Some w, Some s, Some secs, Some t when List.mem w workloads && (t = 0 || t = 1) ->
        (w, s, float_of_string secs, t = 1)
      | _ ->
        Printf.eprintf
          "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
          (String.concat "|" workloads);
        exit 64
    in
    let r = run_workload ~tiny:false workload ~seed ~seconds ~traced:trace in
    Printf.eprintf "perfbench %s seed %d: %s\n" workload seed (environment ());
    List.iter prerr_endline r.summary;
    let cals = !Calib.taken in
    Printf.eprintf
      "calibration kernel over %d calibrations (ms): min %.3f p50 %.3f max %.3f; reference %.3f\n"
      (List.length cals) (quantile 0.0 cals) (median cals) (quantile 1.0 cals)
      Calib.reference_ms;
    let units = if trace then per_layer else end_to_end in
    List.iter
      (fun (n, v) -> Printf.eprintf "  %-26s %16.6f %s\n" n v (List.assoc n units))
      r.metrics;
    if trace then begin
      mkdir_p ".perfbench_out";
      let path = Printf.sprintf ".perfbench_out/trace-%s-seed%d.json" workload seed in
      Trace.write path;
      Printf.eprintf "spans written to %s\n" path
    end;
    print_endline (Serve.Wire.print (result_json ~traced:trace r));
    exit (if correct r then 0 else 1)
