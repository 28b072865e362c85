(* Host-speed calibration.

   The host's vCPUs run at full or about half speed in phases of one
   second to minutes (co-tenant load on the physical cores; see
   README.md). A fixed kernel of the benchmark's own, which calls no
   code of the program under test, is timed between ops; each op's
   latency is then scaled by [reference_ms / kernel time], the kernel
   time being the median of the calibrations around the op.
   The result reads as the op's latency at the host's full speed: a
   slow phase stretches the op and the kernel alike and cancels, while
   a change to the program moves the op and not the kernel.

   The kernel mixes the two kinds of work the workloads do: dense
   float-array arithmetic (the SVD, QR and the sketch) and float
   printing into a buffer with allocation (response encoding). *)

let n = 80
let a = Array.init (n * n) (fun i -> float_of_int ((i * 7919) mod 1009) /. 1009.0)
let c = Array.make (n * n) 0.0
let buf = Buffer.create 65536

let kernel () =
  Array.fill c 0 (n * n) 0.0;
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = a.((i * n) + k) in
      for j = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (aik *. a.((k * n) + j))
      done
    done
  done;
  Buffer.clear buf;
  for i = 0 to 1499 do
    Buffer.add_string buf (Printf.sprintf "%.17g," c.(i))
  done;
  Buffer.length buf

(* The kernel's time at the host's full speed, in ms, measured on the
   host described in environment.json. It only sets the scale: a
   calibrated latency reads as the raw one in a fast phase. *)
let reference_ms = 2.0

let sink = ref 0

(* every calibration of the run, for the summary on standard error *)
let taken = ref []

(* One calibration: the fastest of five kernel runs, in ms. A slow phase
   slows all five; an interrupt or a preemption slows one, and the
   minimum drops it. *)
let measure () =
  let best = ref Float.infinity in
  for _ = 1 to 5 do
    let t0 = Trace.now () in
    sink := !sink + kernel ();
    best := Float.min !best (1000.0 *. (Trace.now () -. t0))
  done;
  taken := !best :: !taken;
  !best

(* calibrations within this many seconds of an op's span count for it *)
let window_s = 1.0

(* The scale for work done from [from] to [until] (seconds on
   [Trace.now]), given [cals], the (time, kernel ms) calibrations of a
   window in any order: reference over the median of the calibrations
   within [window_s] of the span, the last one before it and the first
   one after it always included. *)
let factor cals ~from ~until =
  let before = List.filter (fun (t, _) -> t <= from) cals
  and after = List.filter (fun (t, _) -> t >= until) cals in
  let nearest pick l =
    match l with
    | [] -> []
    | c :: rest -> [ List.fold_left (fun a b -> if pick (fst b) (fst a) then b else a) c rest ]
  in
  let near =
    List.filter (fun (t, _) -> t >= from -. window_s && t <= until +. window_s) cals
    @ nearest ( > ) before @ nearest ( < ) after
  in
  let vs = Array.of_list (List.sort_uniq compare near |> List.map snd) in
  Array.sort compare vs;
  let n = Array.length vs in
  let med = if n mod 2 = 1 then vs.(n / 2) else (vs.((n / 2) - 1) +. vs.(n / 2)) /. 2.0 in
  reference_ms /. med
