(* WAL record + checkpoint codec. Field order is fixed and positional,
   exactly like the PSA1 artifact payload; integers that can exceed 32
   bits (sequence numbers, counters) are split across two u32s. *)

module W = Store.Codec.W
module R = Store.Codec.R

let w_int w v =
  if v < 0 then raise (Store.Codec.Malformed "negative integer field");
  W.u32 w (v land 0xFFFFFFFF);
  W.u32 w ((v lsr 32) land 0x7FFFFFFF)

(* [w_int] writes non-negative 63-bit ints, so the high word is below
   2^30; a larger one would decode to a negative int *)
let r_int r =
  let lo = R.u32 r in
  let hi = R.u32 r in
  if hi >= 1 lsl 30 then raise (Store.Codec.Malformed "integer field out of range");
  (hi lsl 32) lor lo

let w_bool w b = W.u32 w (if b then 1 else 0)

let r_bool r =
  match R.u32 r with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Store.Codec.Malformed "boolean field out of range")

let w_state w (s : Stats.Drift.state) =
  W.u32 w (match s with Healthy -> 0 | Warning -> 1 | Drifted -> 2)

let r_state r : Stats.Drift.state =
  match R.u32 r with
  | 0 -> Healthy
  | 1 -> Warning
  | 2 -> Drifted
  | _ -> raise (Store.Codec.Malformed "drift state out of range")

let w_option w f = function
  | None -> W.u32 w 0
  | Some v ->
    W.u32 w 1;
    f w v

let r_option r f =
  match R.u32 r with
  | 0 -> None
  | 1 -> Some (f r)
  | _ -> raise (Store.Codec.Malformed "option tag out of range")

(* ------------------------------------------------------------------ *)
(* WAL observation records. A leading kind tag leaves room for other
   record types without a segment-format change. *)

let obs_kind = 1

let encode_obs (o : Monitor.obs) =
  let w = W.create () in
  W.u32 w obs_kind;
  W.str w o.Monitor.wafer;
  W.f64 w o.Monitor.resid;
  W.float_array w o.Monitor.measured;
  W.float_array w o.Monitor.truth;
  W.float_array w o.Monitor.full;
  W.contents w

let r_obs r =
  let kind = R.u32 r in
  if kind <> obs_kind then
    raise (Store.Codec.Malformed (Printf.sprintf "unknown record kind %d" kind));
  let wafer = R.str r in
  let resid = R.f64 r in
  let measured = R.float_array r in
  let truth = R.float_array r in
  let full = R.float_array r in
  { Monitor.measured; truth; full; resid; wafer }

let decode_obs payload = Store.Codec.decode payload r_obs

(* ------------------------------------------------------------------ *)
(* Drift / monitor snapshots *)

let w_drift_config w (c : Stats.Drift.config) =
  W.f64 w c.Stats.Drift.slack;
  W.f64 w c.warn;
  W.f64 w c.drift;
  w_int w c.window;
  W.f64 w c.var_ratio;
  w_int w c.max_consecutive_bad

let r_drift_config r : Stats.Drift.config =
  let slack = R.f64 r in
  let warn = R.f64 r in
  let drift = R.f64 r in
  let window = r_int r in
  let var_ratio = R.f64 r in
  let max_consecutive_bad = r_int r in
  { Stats.Drift.slack; warn; drift; window; var_ratio; max_consecutive_bad }

let w_detector w (s : Stats.Drift.snapshot) =
  w_drift_config w s.Stats.Drift.snap_config;
  W.f64 w s.snap_mean0;
  W.f64 w s.snap_sigma0;
  W.f64 w s.snap_s_hi;
  W.f64 w s.snap_s_lo;
  w_int w s.snap_n;
  w_int w s.snap_bad;
  w_int w s.snap_consecutive_bad;
  w_bool w s.snap_quarantine;
  W.float_array w s.snap_win;
  w_int w s.snap_win_n;
  w_state w s.snap_state

let r_detector r : Stats.Drift.snapshot =
  let snap_config = r_drift_config r in
  let snap_mean0 = R.f64 r in
  let snap_sigma0 = R.f64 r in
  let snap_s_hi = R.f64 r in
  let snap_s_lo = R.f64 r in
  let snap_n = r_int r in
  let snap_bad = r_int r in
  let snap_consecutive_bad = r_int r in
  let snap_quarantine = r_bool r in
  let snap_win = R.float_array r in
  let snap_win_n = r_int r in
  let snap_state = r_state r in
  {
    Stats.Drift.snap_config;
    snap_mean0;
    snap_sigma0;
    snap_s_hi;
    snap_s_lo;
    snap_n;
    snap_bad;
    snap_consecutive_bad;
    snap_quarantine;
    snap_win;
    snap_win_n;
    snap_state;
  }

let w_group_entry w (e : Stats.Drift.Grouped.entry_snapshot) =
  W.str w e.Stats.Drift.Grouped.snap_group;
  W.float_array w e.snap_calib;
  w_int w e.snap_calib_n;
  w_option w w_detector e.snap_det

let r_group_entry r : Stats.Drift.Grouped.entry_snapshot =
  let snap_group = R.str r in
  let snap_calib = R.float_array r in
  let snap_calib_n = r_int r in
  let snap_det = r_option r r_detector in
  { Stats.Drift.Grouped.snap_group; snap_calib; snap_calib_n; snap_det }

let w_grouped w (g : Stats.Drift.Grouped.group_snapshot) =
  w_drift_config w g.Stats.Drift.Grouped.snap_cfg;
  w_int w g.snap_calibrate;
  w_int w g.snap_max_groups;
  w_int w g.snap_overflow;
  w_int w (List.length g.snap_entries);
  List.iter (w_group_entry w) g.snap_entries

let r_grouped r : Stats.Drift.Grouped.group_snapshot =
  let snap_cfg = r_drift_config r in
  let snap_calibrate = r_int r in
  let snap_max_groups = r_int r in
  let snap_overflow = r_int r in
  let n = r_int r in
  if n > 1 lsl 20 then
    raise (Store.Codec.Malformed "group count out of range");
  let snap_entries = List.init n (fun _ -> r_group_entry r) in
  {
    Stats.Drift.Grouped.snap_cfg;
    snap_calibrate;
    snap_max_groups;
    snap_overflow;
    snap_entries;
  }

let w_snapshot w (s : Monitor.snapshot) =
  w_int w s.Monitor.snap_r;
  w_int w s.snap_m;
  w_int w s.snap_applied_seq;
  w_int w (Array.length s.snap_ring);
  Array.iter (W.float_array w) s.snap_ring;
  w_int w s.snap_ring_n;
  w_int w s.snap_observed;
  w_int w s.snap_skipped;
  w_int w s.snap_dropped;
  w_int w s.snap_errors;
  w_int w s.snap_reselects;
  w_int w s.snap_reselect_failures;
  W.f64 w s.snap_last_reselect_ms;
  W.f64 w s.snap_backoff;
  W.f64 w s.snap_next_attempt;
  w_bool w s.snap_self_swap;
  W.str w s.snap_last_error;
  w_grouped w s.snap_drift

let r_snapshot r : Monitor.snapshot =
  let snap_r = r_int r in
  let snap_m = r_int r in
  let snap_applied_seq = r_int r in
  let k = r_int r in
  if k > 1 lsl 24 then raise (Store.Codec.Malformed "ring size out of range");
  let snap_ring = Array.init k (fun _ -> R.float_array r) in
  let snap_ring_n = r_int r in
  let snap_observed = r_int r in
  let snap_skipped = r_int r in
  let snap_dropped = r_int r in
  let snap_errors = r_int r in
  let snap_reselects = r_int r in
  let snap_reselect_failures = r_int r in
  let snap_last_reselect_ms = R.f64 r in
  let snap_backoff = R.f64 r in
  let snap_next_attempt = R.f64 r in
  let snap_self_swap = r_bool r in
  let snap_last_error = R.str r in
  let snap_drift = r_grouped r in
  {
    Monitor.snap_r;
    snap_m;
    snap_applied_seq;
    snap_ring;
    snap_ring_n;
    snap_observed;
    snap_skipped;
    snap_dropped;
    snap_errors;
    snap_reselects;
    snap_reselect_failures;
    snap_last_reselect_ms;
    snap_backoff;
    snap_next_attempt;
    snap_self_swap;
    snap_last_error;
    snap_drift;
  }

let encode_snapshot s =
  let w = W.create () in
  w_snapshot w s;
  W.contents w

let decode_snapshot payload = Store.Codec.decode payload r_snapshot

let snapshot_equal a b = String.equal (encode_snapshot a) (encode_snapshot b)

(* ------------------------------------------------------------------ *)
(* Checkpoint files: the store's framed container with its own magic,
   written by atomic rename *)

let ckpt_magic = "PSC1"
let ckpt_version = 2

let save_checkpoint path ~gen snapshot =
  let w = W.create () in
  w_int w gen;
  w_snapshot w snapshot;
  Store.write_file_atomic path
    (Store.frame ~magic:ckpt_magic ~version:ckpt_version (W.contents w))

let load_checkpoint path =
  if not (Sys.file_exists path) then Ok None
  else
    Result.bind (Core.Errors.read_file path) (fun s ->
        Store.unframe ~file:path ~magic:ckpt_magic ~version:ckpt_version s
          (fun r ->
            let gen = r_int r in
            Some (gen, r_snapshot r)))

(* Every version so far puts the generation first, so it outlives a
   layout change; a frame whose CRC fails gives no word to trust. *)
let checkpoint_generation path =
  match Core.Errors.read_file path with
  | Error _ -> None
  | Ok s when String.length s < Store.header_size -> None
  | Ok s ->
    let version = Int32.to_int (String.get_int32_le s 4) in
    if version < 1 || version > ckpt_version then None
    else
      Result.to_option
        (Store.unframe ~file:path ~magic:ckpt_magic ~version s (fun r ->
             let gen = r_int r in
             R.skip_rest r;
             gen))
