(* WAL record + checkpoint file codec. Field order is fixed and
   positional, exactly like the PSA1 artifact payload. *)

module W = Store.Codec.W
module R = Store.Codec.R

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
(* Checkpoint files: the store's framed container with its own magic,
   written by atomic rename *)

let ckpt_magic = "PSC1"
let ckpt_version = 2

let save_checkpoint path ~gen mon =
  let w = W.create () in
  W.int w gen;
  Monitor.encode w mon;
  Store.write_file_atomic path
    (Store.frame ~magic:ckpt_magic ~version:ckpt_version (W.contents w))

let load_checkpoint ?config ~reselect path =
  if not (Sys.file_exists path) then Ok None
  else
    Result.bind (Core.Errors.read_file path) (fun s ->
        Store.unframe ~file:path ~magic:ckpt_magic ~version:ckpt_version s
          (fun r ->
            let gen = R.int r in
            Some (gen, Monitor.decode ?config ~reselect r)))

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
             let gen = R.int r in
             R.skip_rest r;
             gen))
