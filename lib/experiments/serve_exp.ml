type batch_row = {
  batch : int;
  inproc_dies_per_s : float;
  socket_dies_per_s : float;
  socket_round_trip_ms : float;
}

type result = {
  bench : string;
  n_paths : int;
  n_rep : int;
  cold_per_die_s : float;
  cold_256_s : float;
  warm_256_socket_s : float;
  speedup_256 : float;
  bit_identical : bool;
  rows : batch_row list;
}

let eps = 0.05

let batches = [ 1; 16; 64; 256 ]

let n_dies = 256

let top_rows m k = Linalg.Mat.select_rows m (Array.init k Fun.id)

let run ?(oc = stdout) ?out profile =
  Soak.single_domain ();
  let bench_name = "s1423" in
  Printf.fprintf oc
    "E14: serving throughput (%s, %d MC dies; cold pipeline vs warm server)\n"
    bench_name n_dies;
  let build () =
    let setup = Table1.setup profile bench_name in
    let sel = Core.Pipeline.approximate_selection setup ~eps in
    (setup, sel)
  in
  let setup, sel = build () in
  let pool = setup.Core.Pipeline.pool in
  let artifact = Soak.artifact ~fingerprint:"bench:e14 s1423" ~eps setup sel in
  let p = sel.Core.Select.predictor in
  let rep = Core.Predictor.rep_indices p in
  let n_rep = Array.length rep in
  let n_paths = Timing.Paths.num_paths pool in
  let mc = Timing.Monte_carlo.sample (Rng.create 14) pool ~n:n_dies in
  let d = Timing.Monte_carlo.path_delays mc in
  let clean = Linalg.Mat.select_cols d rep in
  (* cold: what [pathsel select] pays per invocation — netlist, SSTA,
     extraction, SVD, bisection selection, then the one-die predict *)
  let n_cold = if profile.Profile.name = "full" then 6 else 3 in
  let cold_once () =
    let (_, sel'), dt1 = Soak.time build in
    let p' = sel'.Core.Select.predictor in
    let rep' = Core.Predictor.rep_indices p' in
    let one = Linalg.Mat.select_cols (top_rows d 1) rep' in
    let _, dt2 = Soak.time (fun () -> ignore (Core.Predictor.predict_all p' ~measured:one)) in
    dt1 +. dt2
  in
  let cold_per_die_s =
    let ts = List.init n_cold (fun _ -> cold_once ()) in
    List.fold_left ( +. ) 0.0 ts /. float_of_int n_cold
  in
  let cold_256_s = cold_per_die_s *. float_of_int n_dies in
  Printf.fprintf oc
    "selection |Pr| = %d of %d; cold pipeline %.3f s/die (x%d = %.1f s)\n" n_rep
    n_paths cold_per_die_s n_dies cold_256_s;
  (* warm, in-process: the request handler on the loaded artifact *)
  let server = Serve.create artifact in
  let inproc b =
    let line =
      Serve.Wire.print
        (Serve.Wire.Obj
           [
             ("op", Serve.Wire.String "predict");
             ("dies", Serve.Wire.mat_to_json (top_rows clean b));
           ])
    in
    let reps = max 1 (n_dies / b) in
    let _, dt =
      Soak.time (fun () ->
          for _ = 1 to reps do
            ignore (Serve.handle server line)
          done)
    in
    float_of_int (b * reps) /. dt
  in
  let inproc_rates = List.map (fun b -> (b, inproc b)) batches in
  (* warm, socket: fork the real server, measure full round trips *)
  let socket_rates, warm_256_socket_s, bit_identical =
    Soak.with_session artifact (fun soak ->
        let pid = Soak.spawn soak in
        let conn = Soak.connect soak in
        let socket_row b =
          let sub = top_rows clean b in
          let reps = max 1 (n_dies / b) in
          let _, dt =
            Soak.time (fun () ->
                for _ = 1 to reps do
                  match Serve.Client.predict conn sub with
                  | Ok _ -> ()
                  | Error msg ->
                    Core.Errors.raise_error
                      (Core.Errors.Bad_data ("Serve_exp: server error: " ^ msg))
                done)
          in
          (float_of_int (b * reps) /. dt, dt /. float_of_int reps *. 1000.0)
        in
        let socket_rates = List.map (fun b -> (b, socket_row b)) batches in
        (* the acceptance measurement: one full 256-die batch *)
        let served, warm_256_socket_s =
          Soak.time (fun () ->
              match Serve.Client.predict conn clean with
              | Ok (m, _) -> m
              | Error msg ->
                Core.Errors.raise_error
                  (Core.Errors.Bad_data ("Serve_exp: server error: " ^ msg)))
        in
        Serve.Client.close conn;
        Soak.drain soak;
        if Soak.reap soak pid <> Soak.Clean then
          Core.Errors.raise_error
            (Core.Errors.Bad_data "Serve_exp: server did not exit cleanly");
        let expected = Core.Predictor.predict_all p ~measured:clean in
        (socket_rates, warm_256_socket_s, Linalg.Mat.bits_equal served expected))
  in
  let rows =
    List.map
      (fun b ->
        let inproc_dies_per_s = List.assoc b inproc_rates in
        let socket_dies_per_s, socket_round_trip_ms = List.assoc b socket_rates in
        { batch = b; inproc_dies_per_s; socket_dies_per_s; socket_round_trip_ms })
      batches
  in
  let speedup_256 = cold_256_s /. warm_256_socket_s in
  Printf.fprintf oc "%6s %16s %16s %15s\n" "batch" "inproc dies/s" "socket dies/s"
    "round-trip ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%6d %16.0f %16.0f %15.3f\n" r.batch r.inproc_dies_per_s
        r.socket_dies_per_s r.socket_round_trip_ms)
    rows;
  Printf.fprintf oc
    "warm 256-die batch over the socket: %.4f s -> %.0fx over 256 cold runs\n"
    warm_256_socket_s speedup_256;
  Printf.fprintf oc "served predictions bit-identical to in-process: %s\n"
    (if bit_identical then "yes" else "NO (wire bug)");
  flush oc;
  let result =
    {
      bench = bench_name;
      n_paths;
      n_rep;
      cold_per_die_s;
      cold_256_s;
      warm_256_socket_s;
      speedup_256;
      bit_identical;
      rows;
    }
  in
  Soak.write ~oc ?out "E14"
    (let open Core.Report in
     [
       ("bench", String result.bench);
       ("n_paths", Int result.n_paths);
       ("n_rep", Int result.n_rep);
       ("cold_per_die_s", Float result.cold_per_die_s);
       ("cold_256_s", Float result.cold_256_s);
       ("warm_256_socket_s", Float result.warm_256_socket_s);
       ("speedup_256", Float result.speedup_256);
       ("bit_identical", Bool result.bit_identical);
       ( "rows",
         List
           (List.map
              (fun b ->
                Obj
                  [
                    ("batch", Int b.batch);
                    ("inproc_dies_per_s", Float b.inproc_dies_per_s);
                    ("socket_dies_per_s", Float b.socket_dies_per_s);
                    ("socket_round_trip_ms", Float b.socket_round_trip_ms);
                  ])
              result.rows) );
     ]);
  result
