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
  cfg : config;
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
  mutable st : state;
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
    cfg = config;
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
    st = Healthy;
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
  match t.st with
  | Drifted -> Drifted (* latched *)
  | Healthy | Warning ->
    let c = cusum t in
    let var_hit =
      match variance_ratio t with
      | Some r -> r >= t.cfg.var_ratio
      | None -> false
    in
    if c >= t.cfg.drift || var_hit then Drifted
    else if c >= t.cfg.warn then Warning
    else Healthy

let observe t x =
  if t.quarantine then t.st
  else if not (Float.is_finite x) then begin
    t.bad <- t.bad + 1;
    t.consecutive_bad <- t.consecutive_bad + 1;
    if t.consecutive_bad >= t.cfg.max_consecutive_bad then
      t.quarantine <- true;
    t.st
  end
  else begin
    t.consecutive_bad <- 0;
    let z = (x -. t.mean0) /. t.sigma0 in
    t.s_hi <- Float.max 0.0 (t.s_hi +. z -. t.cfg.slack);
    t.s_lo <- Float.max 0.0 (t.s_lo -. z -. t.cfg.slack);
    t.win.(t.win_n mod Array.length t.win) <- x;
    t.win_n <- t.win_n + 1;
    t.n <- t.n + 1;
    t.st <- classify t;
    t.st
  end

let state t = t.st
let observed t = t.n
let bad_inputs t = t.bad
let quarantined t = t.quarantine

(* ------------------------------------------------------------------ *)
(* Durability: a detector is its reference, its CUSUM accumulators,
   the residual window, and the latch/quarantine flags — all plain
   data. Snapshots deep-copy the window so a checkpoint writer can
   encode one while the live detector keeps observing. *)

type snapshot = {
  snap_config : config;
  snap_mean0 : float;
  snap_sigma0 : float;
  snap_s_hi : float;
  snap_s_lo : float;
  snap_n : int;
  snap_bad : int;
  snap_consecutive_bad : int;
  snap_quarantine : bool;
  snap_win : float array;
  snap_win_n : int;
  snap_state : state;
}

let snapshot t =
  {
    snap_config = t.cfg;
    snap_mean0 = t.mean0;
    snap_sigma0 = t.sigma0;
    snap_s_hi = t.s_hi;
    snap_s_lo = t.s_lo;
    snap_n = t.n;
    snap_bad = t.bad;
    snap_consecutive_bad = t.consecutive_bad;
    snap_quarantine = t.quarantine;
    snap_win = Array.copy t.win;
    snap_win_n = t.win_n;
    snap_state = t.st;
  }

let restore s =
  check_config s.snap_config;
  if Array.length s.snap_win <> s.snap_config.window then
    invalid_arg "Drift.restore: window length mismatch";
  {
    cfg = s.snap_config;
    mean0 = s.snap_mean0;
    sigma0 = s.snap_sigma0;
    s_hi = s.snap_s_hi;
    s_lo = s.snap_s_lo;
    n = s.snap_n;
    bad = s.snap_bad;
    consecutive_bad = s.snap_consecutive_bad;
    quarantine = s.snap_quarantine;
    win = Array.copy s.snap_win;
    win_n = s.snap_win_n;
    st = s.snap_state;
  }

(* ------------------------------------------------------------------ *)

module Grouped = struct
  type detector = t

  let flat_create = create
  let flat_observe = observe
  let flat_state = state
  let flat_cusum = cusum
  let flat_variance_ratio = variance_ratio
  let flat_quarantined = quarantined
  let flat_snapshot = snapshot
  let flat_restore = restore

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
          let s = flat_state d in
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
        || match e.det with Some d -> flat_quarantined d | None -> false)
      false t

  let drifted_active t =
    fold
      (fun acc e ->
        acc
        ||
        match e.det with
        | Some d ->
          (match flat_state d with
           | Drifted -> not (flat_quarantined d)
           | Healthy | Warning -> false)
        | None -> false)
      false t

  let restart t =
    Hashtbl.reset t.groups;
    Hashtbl.replace t.groups default_group (fresh t)

  (* Durability: group entries are serialized sorted by key so the
     snapshot is canonical — two tables with the same contents yield
     the same snapshot regardless of hash-table history. *)

  type entry_snapshot = {
    snap_group : string;
    snap_calib : float array;
    snap_calib_n : int;
    snap_det : snapshot option;
  }

  type group_snapshot = {
    snap_cfg : config;
    snap_calibrate : int;
    snap_max_groups : int;
    snap_overflow : int;
    snap_entries : entry_snapshot list;  (** sorted by group id *)
  }

  let snapshot t =
    let entries =
      Hashtbl.fold
        (fun group e acc ->
          {
            snap_group = group;
            snap_calib = Array.copy e.calib;
            snap_calib_n = e.calib_n;
            snap_det = Option.map flat_snapshot e.det;
          }
          :: acc)
        t.groups []
      |> List.sort (fun a b -> String.compare a.snap_group b.snap_group)
    in
    {
      snap_cfg = t.cfg;
      snap_calibrate = t.calibrate;
      snap_max_groups = t.max_groups;
      snap_overflow = t.overflow;
      snap_entries = entries;
    }

  let restore s =
    let t =
      create ~config:s.snap_cfg ~calibrate:s.snap_calibrate
        ~max_groups:s.snap_max_groups ()
    in
    t.overflow <- s.snap_overflow;
    List.iter
      (fun e ->
        if Array.length e.snap_calib <> t.calibrate then
          invalid_arg "Drift.Grouped.restore: calibration length mismatch";
        Hashtbl.replace t.groups e.snap_group
          {
            calib = Array.copy e.snap_calib;
            calib_n = e.snap_calib_n;
            det = Option.map flat_restore e.snap_det;
          })
      s.snap_entries;
    if not (Hashtbl.mem t.groups default_group) then
      Hashtbl.replace t.groups default_group (fresh t);
    t
end
