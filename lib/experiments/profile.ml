type t = {
  name : string;
  scale_of : Circuit.Benchmarks.preset -> float;
  max_paths : int;
  mc_samples : int;
  yield_samples : int;
  benches : Circuit.Benchmarks.preset list;
}

let quick =
  {
    name = "quick";
    scale_of =
      (fun p ->
        let g = p.Circuit.Benchmarks.gate_count in
        if g <= 1000 then 1.0
        else if g <= 3000 then 0.5
        else if g <= 6000 then 0.35
        else if g <= 10_000 then 0.22
        else 0.10);
    max_paths = 1200;
    mc_samples = 2000;
    yield_samples = 300;
    benches = Circuit.Benchmarks.all;
  }

let full =
  {
    name = "full";
    scale_of = (fun _ -> 1.0);
    max_paths = 4000;
    mc_samples = 10_000;
    yield_samples = 1000;
    benches = Circuit.Benchmarks.all;
  }
