type state = Healthy | Warning | Drifted

let state_to_string = function
  | Healthy -> "healthy"
  | Warning -> "warning"
  | Drifted -> "drifted"

type config = {
  slack : float;
  warn : float;
  drift : float;
  window : int;
  var_ratio : float;
  max_consecutive_bad : int;
}

let default_config =
  {
    slack = 0.5;
    warn = 4.0;
    drift = 8.0;
    window = 64;
    var_ratio = 6.0;
    max_consecutive_bad = 8;
  }

(* A degenerate (zero-sigma) reference means healthy residuals are a
   point mass: floor sigma so the first real deviation produces a huge
   standardized step instead of a division by zero. *)
let sigma_floor = 1e-12

type t = {
  config : config;
  mean0 : float;
  sigma0 : float; (* floored, > 0 *)
  mutable s_hi : float;
  mutable s_lo : float;
  mutable n : int; (* finite residuals consumed *)
  mutable bad : int;
  mutable consecutive_bad : int;
  mutable quarantine : bool;
  win : float array; (* ring buffer of recent residuals *)
  mutable win_n : int; (* total pushed into the ring *)
  mutable state : state;
}

let check_config config =
  if config.window < 2 then invalid_arg "Drift: window must be >= 2";
  if not (Float.is_finite config.drift && config.drift > 0.0) then
    invalid_arg "Drift: drift threshold must be positive";
  if (not (Float.is_finite config.warn)) || config.warn > config.drift then
    invalid_arg "Drift: warn threshold must be finite and not exceed the \
                 drift threshold";
  if (not (Float.is_finite config.slack)) || config.slack < 0.0 then
    invalid_arg "Drift: slack must be finite and >= 0";
  if not (Float.is_finite config.var_ratio && config.var_ratio > 1.0) then
    invalid_arg "Drift: var_ratio must exceed 1";
  if config.max_consecutive_bad < 1 then
    invalid_arg "Drift: max_consecutive_bad must be >= 1"

let create ?(config = default_config) ~mean ~sigma () =
  if not (Float.is_finite mean) then
    invalid_arg "Drift.create: reference mean must be finite";
  if (not (Float.is_finite sigma)) || sigma < 0.0 then
    invalid_arg "Drift.create: reference sigma must be finite and >= 0";
  check_config config;
  {
    config;
    mean0 = mean;
    sigma0 = Float.max sigma sigma_floor;
    s_hi = 0.0;
    s_lo = 0.0;
    n = 0;
    bad = 0;
    consecutive_bad = 0;
    quarantine = false;
    win = Array.make config.window 0.0;
    win_n = 0;
    state = Healthy;
  }

let cusum t = Float.max t.s_hi t.s_lo

let window_variance t =
  let k = Array.length t.win in
  if t.win_n < k then None
  else begin
    let mean = Array.fold_left ( +. ) 0.0 t.win /. float_of_int k in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. mean in
        acc := !acc +. (d *. d))
      t.win;
    Some (!acc /. float_of_int (k - 1))
  end

let variance_ratio t =
  match window_variance t with
  | None -> None
  | Some v -> Some (v /. (t.sigma0 *. t.sigma0))

let classify t =
  match t.state with
  | Drifted -> Drifted (* latched *)
  | Healthy | Warning ->
    let c = cusum t in
    let var_hit =
      match variance_ratio t with
      | Some r -> r >= t.config.var_ratio
      | None -> false
    in
    if c >= t.config.drift || var_hit then Drifted
    else if c >= t.config.warn then Warning
    else Healthy

let observe t x =
  if t.quarantine then t.state
  else if not (Float.is_finite x) then begin
    t.bad <- t.bad + 1;
    t.consecutive_bad <- t.consecutive_bad + 1;
    if t.consecutive_bad >= t.config.max_consecutive_bad then
      t.quarantine <- true;
    t.state
  end
  else begin
    t.consecutive_bad <- 0;
    let z = (x -. t.mean0) /. t.sigma0 in
    t.s_hi <- Float.max 0.0 (t.s_hi +. z -. t.config.slack);
    t.s_lo <- Float.max 0.0 (t.s_lo -. z -. t.config.slack);
    t.win.(t.win_n mod Array.length t.win) <- x;
    t.win_n <- t.win_n + 1;
    t.n <- t.n + 1;
    t.state <- classify t;
    t.state
  end

(* ------------------------------------------------------------------ *)

module Grouped = struct
  type detector = t

  let flat_create = create
  let flat_observe = observe
  let flat_cusum = cusum
  let flat_variance_ratio = variance_ratio

  (* each group calibrates its own reference from its first residuals,
     exactly the way a flat caller would *)
  type entry = {
    calib : float array;
    mutable calib_n : int;
    mutable det : detector option;
  }

  type nonrec t = {
    cfg : config;
    calibrate : int;
    max_groups : int;
    groups : (string, entry) Hashtbl.t;
    mutable overflow : int;
  }

  let default_group = ""

  let fresh t =
    { calib = Array.make t.calibrate 0.0; calib_n = 0; det = None }

  let create ?(config = default_config) ?(calibrate = 32) ?(max_groups = 64)
      () =
    check_config config;
    if calibrate < 2 then invalid_arg "Drift.Grouped: calibrate must be >= 2";
    if max_groups < 1 then invalid_arg "Drift.Grouped: max_groups must be >= 1";
    let t =
      { cfg = config; calibrate; max_groups; groups = Hashtbl.create 16;
        overflow = 0 }
    in
    Hashtbl.replace t.groups default_group (fresh t);
    t

  let entry_for t group =
    match Hashtbl.find_opt t.groups group with
    | Some e -> e
    | None ->
      if Hashtbl.length t.groups >= t.max_groups then begin
        (* bounded table: unknown groups past the cap share the default
           stream rather than grow without limit *)
        t.overflow <- t.overflow + 1;
        Hashtbl.find t.groups default_group
      end
      else begin
        let e = fresh t in
        Hashtbl.replace t.groups group e;
        e
      end

  let observe t ~group x =
    let e = entry_for t group in
    match e.det with
    | Some d -> flat_observe d x
    | None ->
      (* calibration: only finite residuals shape the reference *)
      if Float.is_finite x then begin
        e.calib.(e.calib_n) <- x;
        e.calib_n <- e.calib_n + 1;
        if e.calib_n >= t.calibrate then begin
          let sample = Array.sub e.calib 0 e.calib_n in
          e.det <-
            Some
              (flat_create ~config:t.cfg
                 ~mean:(Descriptive.mean sample)
                 ~sigma:(Descriptive.stddev sample) ())
        end
      end;
      Healthy

  let fold f init t = Hashtbl.fold (fun _ e acc -> f acc e) t.groups init

  let group_count t = Hashtbl.length t.groups
  let overflowed t = t.overflow

  let calibrating t =
    fold (fun acc e -> acc && Option.is_none e.det) true t

  let severity = function Healthy -> 0 | Warning -> 1 | Drifted -> 2

  let state t =
    fold
      (fun acc e ->
        match e.det with
        | None -> acc
        | Some d ->
          let s = d.state in
          if severity s > severity acc then s else acc)
      Healthy t

  let cusum t =
    fold
      (fun acc e ->
        match e.det with
        | None -> acc
        | Some d -> Float.max acc (flat_cusum d))
      0.0 t

  let variance_ratio t =
    fold
      (fun acc e ->
        match e.det with
        | None -> acc
        | Some d ->
          (match (flat_variance_ratio d, acc) with
           | None, _ -> acc
           | Some v, None -> Some v
           | Some v, Some a -> Some (Float.max v a)))
      None t

  let quarantined t =
    fold
      (fun acc e ->
        acc
        || match e.det with Some d -> d.quarantine | None -> false)
      false t

  let drifted_active t =
    fold
      (fun acc e ->
        acc
        ||
        match e.det with
        | Some d ->
          (match d.state with
           | Drifted -> not d.quarantine
           | Healthy | Warning -> false)
        | None -> false)
      false t

  let restart t =
    Hashtbl.reset t.groups;
    Hashtbl.replace t.groups default_group (fresh t)
end
