type param = Leff | Vt

let param_name = function Leff -> "Leff" | Vt -> "Vt"

type var_key =
  | Region of { param : param; level : int; cell : int }
  | Gate_random of int

type model = {
  levels : int;
  level_weights : float array;
  random_share : float;
  random_boost : float;
}

let default_weights levels =
  if levels = 1 then [| 1.0 |]
  else begin
    let rest = 0.6 /. float_of_int (levels - 1) in
    Array.init levels (fun k -> if k = 0 then 0.4 else rest)
  end

let make_model ?level_weights ?(random_share = 0.06) ?(random_boost = 1.0) ~levels () =
  if levels < 1 then invalid_arg "Variation.make_model: levels must be >= 1";
  if random_share < 0.0 || random_share >= 1.0 then
    invalid_arg "Variation.make_model: random_share outside [0, 1)";
  if random_boost < 0.0 then invalid_arg "Variation.make_model: negative random_boost";
  let level_weights =
    match level_weights with
    | None -> default_weights levels
    | Some w ->
      if Array.length w <> levels then
        invalid_arg "Variation.make_model: level_weights length mismatch";
      let s = Array.fold_left ( +. ) 0.0 w in
      if s <= 0.0 then invalid_arg "Variation.make_model: level_weights sum to 0";
      Array.iter (fun x -> if x < 0.0 then
                     invalid_arg "Variation.make_model: negative level weight") w;
      Array.map (fun x -> x /. s) w
  in
  { levels; level_weights; random_share; random_boost }

let regions_at_level level = 1 lsl (2 * level)

(* regions on the levels above [level]: sum of 4^k for k < level *)
let level_base level = (regions_at_level level - 1) / 3

let region_count m = level_base m.levels

let num_slots m ~gates = (2 * region_count m) + gates

let slot m = function
  | Region { param; level; cell } ->
    if level < 0 || level >= m.levels || cell < 0 || cell >= regions_at_level level then
      invalid_arg "Variation.slot: region outside the model";
    let p = match param with Leff -> 0 | Vt -> 1 in
    (p * region_count m) + level_base level + cell
  | Gate_random g ->
    if g < 0 then invalid_arg "Variation.slot: negative gate id";
    (2 * region_count m) + g

let key_of_slot m s =
  let per_param = region_count m in
  if s < 0 then invalid_arg "Variation.key_of_slot: negative slot";
  if s >= 2 * per_param then Gate_random (s - (2 * per_param))
  else begin
    let param = if s < per_param then Leff else Vt in
    let r = s mod per_param in
    let level = ref 0 in
    while level_base (!level + 1) <= r do
      incr level
    done;
    Region { param; level = !level; cell = r - level_base !level }
  end

let cell_of_position ~level x y =
  let side = 1 lsl level in
  let clamp_idx v =
    let i = int_of_float (v *. float_of_int side) in
    max 0 (min (side - 1) i)
  in
  (clamp_idx y * side) + clamp_idx x

let var_name = function
  | Region { param; level; cell } ->
    Printf.sprintf "%s@L%d.%d" (param_name param) level cell
  | Gate_random g -> Printf.sprintf "rand@g%d" g
