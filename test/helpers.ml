(* Helpers shared by the test suites. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

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
