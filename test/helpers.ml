(* Helpers shared by the test suites. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Gate [g]'s sensitivity terms as (variable, coefficient) pairs, read
   back from the delay model's compiled slots. *)
let sensitivities dm g =
  let { Timing.Delay_model.ptr; slots; coefs } = Timing.Delay_model.terms dm in
  let model = Timing.Delay_model.model dm in
  List.init (ptr.(g + 1) - ptr.(g)) (fun e ->
      (Timing.Variation.key_of_slot model slots.(ptr.(g) + e), coefs.(ptr.(g) + e)))

(* The small end-to-end fixture several suites share: a 150-gate
   synthetic circuit through [Pipeline.prepare], built once per run. *)
let pipeline =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 150; num_inputs = 14;
           num_outputs = 12; depth = 10; seed = 8 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     Core.Pipeline.prepare ~netlist:nl ~model ~yield_samples:200 ~seed:21 ())

(* The served artifact the serve, tune and chaos suites share: a
   90-gate synthetic circuit, up to 400 extracted paths and their exact
   selection, built once per run. *)
let served_selection =
  lazy
    (let nl =
       Circuit.Generator.generate
         { Circuit.Generator.default with num_gates = 90; seed = 23; depth = 8;
           num_inputs = 10; num_outputs = 8 }
     in
     let model = Timing.Variation.make_model ~levels:3 () in
     let dm = Timing.Delay_model.build nl model in
     let t_cons = Timing.Delay_model.nominal_critical_delay dm in
     let r =
       Timing.Path_extract.extract ~max_paths:400 dm ~t_cons ~yield_threshold:0.99
     in
     let pool = Timing.Paths.build dm r.Timing.Path_extract.paths in
     let a = Timing.Paths.a_mat pool in
     let mu = Timing.Paths.mu_paths pool in
     (pool, t_cons, Core.Select.exact ~a ~mu ()))

(* [served_artifact ~fingerprint ~seed ~dies]: the shared selection as
   a store under [fingerprint], and its representatives' delays on
   [dies] Monte-Carlo dies drawn from [seed]. *)
let served_artifact ~fingerprint ~seed ~dies =
  let pool, t_cons, sel = Lazy.force served_selection in
  let mc = Timing.Monte_carlo.sample (Rng.create seed) pool ~n:dies in
  let d = Timing.Monte_carlo.path_delays mc in
  let rep = Core.Predictor.rep_indices sel.Core.Select.predictor in
  let store =
    Store.of_selection ~fingerprint ~n_segments:(Timing.Paths.num_segments pool) ~t_cons
      ~eps:0.05 ~a:(Timing.Paths.a_mat pool) ~mu:(Timing.Paths.mu_paths pool) sel
  in
  (store, Linalg.Mat.select_cols d rep)

(* Run the real accept loop for [store] on a background thread, in a
   fresh socket directory, and call [f store measured addr]; shut the
   server down and remove the directory afterwards. *)
let with_server ?config ?reload_from (store, measured) f =
  let dir = Filename.temp_file "pathsel-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Serve.Unix_sock (Filename.concat dir "s.sock") in
  let thread =
    Thread.create
      (fun () -> Serve.run ~install_signals:false ?config ?reload_from store addr)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* the teardown connection can itself be shed when a bounded-queue
         test leaves the queue full (unix connect succeeds before accept):
         the server answers "overloaded" instead of executing the
         shutdown, and a single blind attempt would leave the join below
         blocked forever — retry until the drain is actually acked *)
      let shutdown_acked () =
        try
          let c = Serve.Client.connect ~retries:5 addr in
          let r =
            Serve.Client.request c
              (Serve.Wire.Obj [ ("op", Serve.Wire.String "shutdown") ])
          in
          Serve.Client.close c;
          match r with
          | Ok j -> Serve.Wire.member "ok" j = Some (Serve.Wire.Bool true)
          | Error _ -> false
        with _ -> false
      in
      let rec ask tries =
        if (not (shutdown_acked ())) && tries > 0 then begin
          Thread.delay 0.1;
          ask (tries - 1)
        end
      in
      ask 50;
      Thread.join thread;
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f store measured addr)
