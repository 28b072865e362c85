(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation section
   (Table 1, Table 2, Figure 2, the Section-6.3 guard-band analysis),
   plus the ablations, baselines and robustness studies from DESIGN.md
   and the E14-E20 soak and scaling experiments with their CI gates.
   Kernel timings are E15's rows; per-layer timings are perfbench's.

   Usage:
     dune exec bench/main.exe                     # everything, quick profile
     dune exec bench/main.exe -- table1           # one experiment
     dune exec bench/main.exe -- table2 --full    # paper-scale sizes
     dune exec bench/main.exe -- e16 --smoke      # one experiment's CI gate *)

let () = Experiments.Soak.child_main ()

(* The dispatch table at the bottom is the single source of truth for
   the subcommand list: the usage string, the dispatch, and "all" are
   all generated from it, so they cannot drift apart. *)

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title (String.make 78 '=')

(* name, banner title, runner, and the short CI gate that
   [<name> --smoke] runs instead: no JSON file, exit 0 or 1 on the
   verdict the experiment's [run] returns. Everything else derives
   from this list. *)
let experiments :
    (string
    * string
    * (Experiments.Profile.t -> unit)
    * (Experiments.Profile.t -> bool) option)
    list =
  [
    ( "table1",
      "E1 / Table 1 -- approximate path selection",
      (fun p -> ignore (Experiments.Table1.run p)),
      None );
    ( "table2",
      "E2 / Table 2 -- hybrid path/segment selection",
      (fun p -> ignore (Experiments.Table2.run p)),
      None );
    ( "figure2",
      "E3 / Figure 2 -- singular value decay",
      (fun p -> ignore (Experiments.Figure2.run p)),
      None );
    ( "guardband",
      "E4 / Section 6.3 -- guard-band analysis",
      (fun p -> ignore (Experiments.Guardband_exp.run p)),
      None );
    ("ablation", "E5+E6+E7+E10 -- ablations", (fun p -> Experiments.Ablation.run p), None);
    ( "robustness",
      "E8+E9+E11 -- production robustness",
      (fun p -> Experiments.Robustness.run p),
      None );
    ( "baselines",
      "E12 -- baselines from the related work",
      (fun p -> ignore (Experiments.Baselines_exp.run p)),
      None );
    ( "faults",
      "E13 -- fault-tolerant prediction under dirty silicon data",
      (fun p -> ignore (Experiments.Faults_exp.run p)),
      None );
    ( "e14",
      "E14 -- serving throughput: cold pipeline vs warm batched server",
      (fun p -> Experiments.Serve_exp.run ~out:"BENCH_e14.json" p),
      None );
    (* gate: every parallel kernel bit-identical to serial; on >= 2-core
       hosts also the 4-domain matmul speedup floor *)
    ( "e15",
      "E15 -- domain-pool scaling: kernels and end-to-end pipeline",
      (fun p -> ignore (Experiments.Scaling.run ~out:"BENCH_e15.json" p)),
      Some (fun p -> Experiments.Scaling.run ~smoke:true p) );
    (* gate: the serving invariants under wire-level faults *)
    ( "e16",
      "E16 -- chaos soak: serving invariants under wire-level faults",
      (fun p -> ignore (Experiments.Chaos_exp.run ~out:"BENCH_e16.json" p)),
      Some (fun p -> Experiments.Chaos_exp.run p) );
    (* gate: drift detected, re-selection recovers accuracy, no wrong
       answer *)
    ( "e17",
      "E17 -- self-healing soak: drift detection and auto re-selection",
      (fun p -> ignore (Experiments.Drift_exp.run ~out:"BENCH_e17.json" p)),
      Some (fun p -> Experiments.Drift_exp.run p) );
    (* gate: IS agrees with brute-force MC at >= 50x fewer samples, and
       every served answer is bit-exact *)
    ( "e18",
      "E18 -- decision workloads: importance-sampled yield + per-die tuning",
      (fun p -> ignore (Experiments.Decision_exp.run ~out:"BENCH_e18.json" p)),
      Some (fun p -> Experiments.Decision_exp.run p) );
    (* gate: a 50k-path sketched selection inside the wall budget, and
       worst-case error within 1.25x of the exact engine *)
    ( "e19",
      "E19 -- sketched million-path selection: quality vs exact, wall-clock scaling",
      (fun p -> ignore (Experiments.Sketch_exp.run ~out:"BENCH_e19.json" p)),
      Some (fun p -> Experiments.Sketch_exp.run ~smoke:true p) );
    (* gate: random SIGKILLs under live traffic, zero acked-but-lost
       observations, recovered state equal to an uninterrupted run *)
    ( "e20",
      "E20 -- kill/recovery soak: WAL + checkpoint durability under SIGKILL",
      (fun p -> ignore (Experiments.Recover_exp.run ~out:"BENCH_e20.json" p)),
      Some (fun p -> Experiments.Recover_exp.run p) );
  ]

let usage () =
  Printf.printf "usage: main.exe [%s|all] [--full] [--smoke] [--domains N]\n"
    (String.concat "|" (List.map (fun (name, _, _, _) -> name) experiments));
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let args =
    let rec strip_domains = function
      | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
         | Some d when d >= 1 -> Par.Pool.set_size d
         | _ -> usage ());
        strip_domains rest
      | a :: rest -> a :: strip_domains rest
      | [] -> []
    in
    strip_domains args
  in
  let profile = if full then Experiments.Profile.full else Experiments.Profile.quick in
  let what = match args with [] -> "all" | [ w ] -> w | _ -> usage () in
  let entry = List.find_opt (fun (name, _, _, _) -> name = what) experiments in
  if smoke then begin
    match entry with
    | Some (_, _, _, Some gate) -> exit (if gate profile then 0 else 1)
    | _ -> usage ()
  end;
  Printf.printf "profile: %s\n" profile.Experiments.Profile.name;
  let t0 = Unix.gettimeofday () in
  (* typed-error boundary: an error the Errors layer recognizes is one
     stderr line and its sysexits status (64 usage, 65 data, 66 missing
     input, 70 numerical), not a backtrace *)
  let run_one (_, title, fn, _) =
    banner title;
    match Core.Errors.catch (fun () -> fn profile) with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "bench: %s\n" (Core.Errors.to_string e);
      exit (Core.Errors.exit_code e)
  in
  (match (what, entry) with
   | "all", _ -> List.iter run_one experiments
   | _, Some e -> run_one e
   | _, None -> usage ());
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
