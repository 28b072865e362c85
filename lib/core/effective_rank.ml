let check_spectrum s =
  let n = Array.length s in
  for i = 0 to n - 1 do
    if s.(i) < 0.0 then invalid_arg "Effective_rank: negative singular value";
    if i > 0 && s.(i) > s.(i - 1) +. 1e-12 *. Float.max 1.0 s.(0) then
      invalid_arg "Effective_rank: singular values not sorted"
  done

let of_singular_values ~eta s =
  if eta <= 0.0 || eta >= 1.0 then invalid_arg "Effective_rank: eta outside (0,1)";
  check_spectrum s;
  let e = Array.fold_left ( +. ) 0.0 s in
  if Float.equal e 0.0 then 0
  else begin
    let target = (1.0 -. eta) *. e in
    let rec go k acc =
      if k >= Array.length s then Array.length s
      else begin
        let acc = acc +. s.(k) in
        if acc >= target then k + 1 else go (k + 1) acc
      end
    in
    go 0 0.0
  end

let normalized_spectrum s =
  let e = Array.fold_left ( +. ) 0.0 s in
  if Float.equal e 0.0 then Array.map (fun _ -> 0.0) s else Array.map (fun v -> v /. e) s
