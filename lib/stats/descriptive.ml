let mean xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let covariance xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Descriptive.covariance: length mismatch";
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)
  end

let correlation xs ys =
  let sx = stddev xs and sy = stddev ys in
  if Float.equal sx 0.0 || Float.equal sy 0.0 then 0.0
  else covariance xs ys /. (sx *. sy)

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.quantile: empty";
  if p < 0.0 || p > 1.0 then invalid_arg "Descriptive.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let approx_equal ?(rel = 1e-9) ?(abs = 1e-12) a b =
  if Float.is_nan a || Float.is_nan b then false
  else if Float.equal a b then true (* covers equal infinities *)
  else
    Float.abs (a -. b) <= Float.max abs (rel *. Float.max (Float.abs a) (Float.abs b))
