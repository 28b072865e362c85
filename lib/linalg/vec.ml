type t = float array

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimensions %d and %d differ"
                   name (Array.length x) (Array.length y))

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let scale a x = Array.map (fun v -> a *. v) x

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

(* Two-pass scaled norm: immune to overflow/underflow of the squares. *)
let norm2 x =
  let scale_max = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !scale_max then scale_max := a
  done;
  if Float.equal !scale_max 0.0 then 0.0
  else begin
    let s = !scale_max in
    let acc = ref 0.0 in
    for i = 0 to Array.length x - 1 do
      let v = x.(i) /. s in
      acc := !acc +. (v *. v)
    done;
    s *. sqrt !acc
  end

let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !acc then acc := a
  done;
  !acc

let norm1 x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. Float.abs x.(i)
  done;
  !acc

let dist2 x y =
  check_dims "dist2" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let equal ?(tol = 1e-12) x y =
  Array.length x = Array.length y
  && begin
    let ok = ref true in
    for i = 0 to Array.length x - 1 do
      if Float.abs (x.(i) -. y.(i)) > tol then ok := false
    done;
    !ok
  end
