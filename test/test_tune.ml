(* Tunable-buffer configuration: the branch-and-bound solver against
   full enumeration on tiny instances, the complete infeasibility
   check, the node-budget fallback, and the code-65 semantic error
   surfaced through a live server. *)

(* random tiny instances the exhaustive reference can always handle:
   <= 3 paths, <= 3 buffers, <= 4 levels each *)
let gen_instance seed =
  let rng = Rng.create seed in
  let n_paths = 1 + Rng.int rng 3 in
  let n_buffers = 1 + Rng.int rng 3 in
  let delays =
    Array.init n_paths (fun _ -> Rng.uniform rng 80.0 120.0)
  in
  let buffers =
    Array.init n_buffers (fun _ ->
        let n_levels = 1 + Rng.int rng 4 in
        let n_cover = 1 + Rng.int rng n_paths in
        let idx = Array.init n_paths (fun i -> i) in
        Rng.shuffle rng idx;
        {
          Tune.paths = Array.sub idx 0 n_cover;
          levels =
            Array.init n_levels (fun _ ->
                {
                  Tune.offset_ps = Rng.uniform rng (-30.0) 10.0;
                  cost = Rng.uniform rng 0.0 5.0;
                });
        })
  in
  let t_clk = Rng.uniform rng 75.0 125.0 in
  { Tune.delays; t_clk; buffers }

let adjusted (inst : Tune.instance) (levels : int array) =
  let d = Array.copy inst.Tune.delays in
  Array.iteri
    (fun b l ->
      let buf = inst.Tune.buffers.(b) in
      Array.iter
        (fun p -> d.(p) <- d.(p) +. buf.Tune.levels.(l).Tune.offset_ps)
        buf.Tune.paths)
    levels;
  d

let meets inst levels =
  Array.for_all (fun d -> d <= inst.Tune.t_clk) (adjusted inst levels)

(* 200 random tiny instances: solve and exhaustive agree on
   feasibility, optimal cost, and both certificates meet timing *)
let test_solve_equals_exhaustive () =
  for seed = 1 to 200 do
    let inst = gen_instance seed in
    match (Tune.solve inst, Tune.exhaustive inst) with
    | Tune.Infeasible i1, Tune.Infeasible i2 ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same worst path" seed)
        i2.Tune.path i1.Tune.path;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "seed %d: same deficit" seed)
        i2.Tune.deficit_ps i1.Tune.deficit_ps
    | Tune.Feasible a1, Tune.Feasible a2 ->
      if Float.abs (a1.Tune.cost -. a2.Tune.cost) > 1e-9 then
        Alcotest.failf "seed %d: cost %g (solve) vs %g (exhaustive)" seed
          a1.Tune.cost a2.Tune.cost;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: solve meets t_clk" seed)
        true (meets inst a1.Tune.levels);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: exhaustive meets t_clk" seed)
        true (meets inst a2.Tune.levels);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: exact" seed)
        true a1.Tune.exact
    | Tune.Feasible _, Tune.Infeasible _ | Tune.Infeasible _, Tune.Feasible _
      ->
      Alcotest.failf "seed %d: solvers disagree on feasibility" seed
  done

(* infeasibility is decided completely up front: the reported deficit
   is exactly the worst path's miss at all-minimum offsets *)
let test_infeasible_is_complete () =
  let inst =
    {
      Tune.delays = [| 100.0; 130.0 |];
      t_clk = 105.0;
      buffers =
        [|
          {
            Tune.paths = [| 1 |];
            levels =
              [|
                { Tune.offset_ps = 0.0; cost = 0.0 };
                { Tune.offset_ps = -10.0; cost = 2.0 };
              |];
          };
        |];
    }
  in
  (match Tune.solve inst with
  | Tune.Feasible _ -> Alcotest.fail "expected Infeasible"
  | Tune.Infeasible i ->
    Alcotest.(check int) "worst path" 1 i.Tune.path;
    (* 130 - 10 = 120 misses 105 by 15 *)
    Alcotest.(check (float 1e-9)) "deficit" 15.0 i.Tune.deficit_ps);
  (* one more level makes it feasible at the minimum sufficient cost *)
  let buf = inst.Tune.buffers.(0) in
  let fixable =
    {
      inst with
      Tune.buffers =
        [|
          {
            buf with
            Tune.levels =
              Array.append buf.Tune.levels
                [| { Tune.offset_ps = -25.0; cost = 7.0 } |];
          };
        |];
    }
  in
  match Tune.solve fixable with
  | Tune.Infeasible _ -> Alcotest.fail "expected Feasible"
  | Tune.Feasible a ->
    Alcotest.(check (float 1e-9)) "pays for the only feasible level" 7.0
      a.Tune.cost;
    Alcotest.(check (float 1e-9)) "slack" 0.0 a.Tune.slack_ps

(* a loose clock costs nothing: every buffer picks its cheapest level *)
let test_loose_clock_zero_cost () =
  let inst = gen_instance 42 in
  let inst = { inst with Tune.t_clk = 1e6 } in
  let cheapest =
    Array.fold_left
      (fun acc (buf : Tune.buffer) ->
        acc
        +. Array.fold_left
             (fun m (l : Tune.level) -> Float.min m l.Tune.cost)
             Float.infinity buf.Tune.levels)
      0.0 inst.Tune.buffers
  in
  match Tune.solve inst with
  | Tune.Infeasible _ -> Alcotest.fail "loose clock cannot be infeasible"
  | Tune.Feasible a ->
    Alcotest.(check (float 1e-9)) "sum of cheapest levels" cheapest a.Tune.cost

(* exhausting the node budget still returns a feasible, timing-clean
   incumbent -- just not a proof of optimality *)
let test_node_budget_fallback () =
  (* the all-minimum-offset seed is deliberately expensive, so proving
     the cheap assignments optimal needs more than one search node *)
  let buf =
    {
      Tune.paths = [| 0 |];
      levels =
        [|
          { Tune.offset_ps = 0.0; cost = 0.0 };
          { Tune.offset_ps = -5.0; cost = 3.0 };
        |];
    }
  in
  let inst = { Tune.delays = [| 100.0 |]; t_clk = 1e6; buffers = [| buf; buf |] } in
  match Tune.solve ~max_nodes:1 inst with
  | Tune.Infeasible _ -> Alcotest.fail "feasible instance"
  | Tune.Feasible a ->
    Alcotest.(check bool) "marked inexact" false a.Tune.exact;
    Alcotest.(check bool) "still meets t_clk" true (meets inst a.Tune.levels)

let test_check_instance () =
  let base = gen_instance 3 in
  let expect_invalid name inst =
    match Tune.solve inst with
    | (_ : Tune.result) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "nan delay"
    { base with Tune.delays = Array.map (fun _ -> Float.nan) base.Tune.delays };
  expect_invalid "path out of range"
    {
      base with
      Tune.buffers =
        [|
          {
            Tune.paths = [| Array.length base.Tune.delays |];
            levels = [| { Tune.offset_ps = 0.0; cost = 0.0 } |];
          };
        |];
    };
  expect_invalid "negative cost"
    {
      base with
      Tune.buffers =
        [|
          {
            Tune.paths = [| 0 |];
            levels = [| { Tune.offset_ps = 0.0; cost = -1.0 } |];
          };
        |];
    };
  expect_invalid "empty levels"
    { base with Tune.buffers = [| { Tune.paths = [| 0 |]; levels = [||] } |] }

(* ---- through the server: tune as a first-class op ---------------- *)

let artifact =
  lazy (Helpers.served_artifact ~fingerprint:"test:tune" ~seed:99 ~dies:4)

let with_server f = Helpers.with_server (Lazy.force artifact) f

let simple_buffers =
  [|
    {
      Tune.paths = [| 0 |];
      levels =
        [|
          { Tune.offset_ps = 0.0; cost = 0.0 };
          { Tune.offset_ps = -10.0; cost = 1.0 };
        |];
    };
  |]

(* an impossible clock fails the whole request with semantic code 65 --
   a typed error the client must not retry *)
let test_serve_infeasible_code_65 () =
  with_server (fun _store measured addr ->
      let conn = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          let req =
            Serve.Client.tune_request ~t_clk:1.0 ~buffers:simple_buffers
              ~measured ()
          in
          match Serve.Client.request conn req with
          | Error e -> Alcotest.failf "transport error: %s" e
          | Ok resp ->
            Alcotest.(check bool) "ok:false" true
              (Serve.Wire.member "ok" resp = Some (Serve.Wire.Bool false));
            (match Serve.Wire.member "code" resp with
            | Some (Serve.Wire.Int 65) -> ()
            | other ->
              Alcotest.failf "expected semantic code 65, got %s"
                (match other with
                | Some j -> Serve.Wire.print j
                | None -> "<absent>"))))

(* a loose clock is feasible on every die: cheapest levels, zero cost,
   exact -- and the floats come back bit-identical to a local solve *)
let test_serve_feasible_matches_local () =
  with_server (fun _store measured addr ->
      let conn = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          match
            Serve.Client.tune ~t_clk:1e9 ~buffers:simple_buffers ~measured conn
          with
          | Error e -> Alcotest.failf "tune failed: %s" e
          | Ok resp ->
            let rows =
              match Serve.Wire.member "results" resp with
              | Some (Serve.Wire.List l) -> l
              | _ -> []
            in
            let dies, _ = Linalg.Mat.dims measured in
            Alcotest.(check int) "one result per die" dies (List.length rows);
            List.iter
              (fun row ->
                Alcotest.(check bool) "cheapest level" true
                  (Serve.Wire.member "levels" row
                  = Some (Serve.Wire.List [ Serve.Wire.Int 0 ]));
                (match Serve.Wire.member "cost" row with
                | Some (Serve.Wire.Float c) ->
                  Alcotest.(check bool) "zero cost bits" true
                    (Int64.bits_of_float c = Int64.bits_of_float 0.0)
                | Some (Serve.Wire.Int 0) -> ()
                | _ -> Alcotest.fail "cost missing");
                Alcotest.(check bool) "exact" true
                  (Serve.Wire.member "exact" row
                  = Some (Serve.Wire.Bool true)))
              rows))

let suites =
  [
    ( "tune",
      [
        Alcotest.test_case "solve equals exhaustive on tiny instances" `Quick
          test_solve_equals_exhaustive;
        Alcotest.test_case "infeasibility check is complete" `Quick
          test_infeasible_is_complete;
        Alcotest.test_case "loose clock costs nothing" `Quick
          test_loose_clock_zero_cost;
        Alcotest.test_case "node-budget fallback stays feasible" `Quick
          test_node_budget_fallback;
        Alcotest.test_case "instance validation" `Quick test_check_instance;
        Alcotest.test_case "serve: infeasible surfaces as code 65" `Quick
          test_serve_infeasible_code_65;
        Alcotest.test_case "serve: feasible matches local bits" `Quick
          test_serve_feasible_matches_local;
      ] );
  ]
