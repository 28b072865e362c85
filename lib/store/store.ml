(* Re-export the library's inner modules: the library is wrapped with
   this file as its interface, so [Codec] and [Wal] are only reachable
   as [Store.Codec]/[Store.Wal] through these aliases. *)
module Codec = Codec
module Wal = Wal

type t = {
  fingerprint : string;
  t_cons : float;
  eps : float;
  kappa : float;
  n_paths : int;
  n_segments : int;
  n_vars : int;
  selection : Core.Select.t;
  mu : Linalg.Vec.t;
  a_mat : Linalg.Mat.t;
}

let magic = "PSA1"

let current_version = 3

(* ------------------------------------------------------------------ *)
(* The framed-file container: PSA1 artifacts and PSC1 checkpoints *)

let header_size = 20 (* magic 4 + version 4 + payload length 8 + crc 4 *)

let frame ~magic ~version payload =
  if String.length magic <> 4 then invalid_arg "Store.frame: magic must be 4 bytes";
  let n = String.length payload in
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int version);
  Bytes.set_int64_le b 8 (Int64.of_int n);
  Bytes.set_int32_le b 16 (Int32.of_int (Codec.crc32 payload));
  Bytes.blit_string payload 0 b header_size n;
  Bytes.unsafe_to_string b

(* The payload is checked and decoded in place, from [header_size] to
   the end of [s]: a 17 MB artifact is never copied out of its frame. *)
let unframe ~file ~magic ~version s decode =
  let corrupt msg = Error (Core.Errors.Corrupt_artifact { file; msg }) in
  let u32 off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF in
  let n = String.length s in
  if n < header_size then corrupt "shorter than the header"
  else if String.sub s 0 4 <> magic then Error (Core.Errors.Bad_magic { file })
  else if u32 4 <> version then
    Error (Core.Errors.Version_mismatch { file; found = u32 4; expected = version })
  else begin
    let plen = Int64.to_int (String.get_int64_le s 8) in
    if plen < 0 || n - header_size < plen then
      corrupt "payload shorter than the header says"
    else if n - header_size > plen then corrupt "trailing bytes after the payload"
    else if Codec.crc32 ~pos:header_size s <> u32 16 then
      corrupt "checksum mismatch (CRC-32)"
    else
      Result.map_error
        (fun msg -> Core.Errors.Corrupt_artifact { file; msg })
        (Codec.decode ~pos:header_size s decode)
  end

(* [of_selection] and the decoder both end here, with a selection whose
   predictor is [Predictor.build ~a ~mu ~rep:indices]: a loaded
   artifact's predictor is built exactly as the saved one was. *)
let make ~fingerprint ~t_cons ~eps ~kappa ~n_segments ~a ~mu (sel : Core.Select.t) =
  let n, m = Linalg.Mat.dims a in
  if Array.length sel.Core.Select.per_path_eps <> n - Array.length sel.Core.Select.indices
  then invalid_arg "Store: per-path tolerance length disagrees with the remainder count";
  { fingerprint; t_cons; eps; kappa; n_paths = n; n_segments; n_vars = m;
    selection = sel; mu; a_mat = a }

let of_selection ?(fingerprint = "") ?(kappa = Core.Config.default.Core.Config.kappa)
    ?(n_segments = 0) ~t_cons ~eps ~a ~mu (sel : Core.Select.t) =
  let predictor = Core.Predictor.build ~a ~mu ~rep:sel.Core.Select.indices in
  make ~fingerprint ~t_cons ~eps ~kappa ~n_segments ~a ~mu:(Array.copy mu)
    { sel with predictor }

let predictor t = t.selection.Core.Select.predictor

let robust t = Core.Robust.of_predictor (predictor t)

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Only what [Predictor.build] cannot derive: provenance, the selection
   record (its eps_r and per-path tolerances were computed against the
   selection's own t_cons and kappa, not necessarily these), mu and A. *)
let encode_payload t =
  let b = Codec.W.create () in
  let sel = t.selection in
  Codec.W.str b t.fingerprint;
  Codec.W.f64 b t.t_cons;
  Codec.W.f64 b t.eps;
  Codec.W.f64 b t.kappa;
  Codec.W.u32 b t.n_segments;
  Codec.W.int_array b sel.Core.Select.indices;
  Codec.W.u32 b sel.Core.Select.rank;
  Codec.W.u32 b sel.Core.Select.effective_rank;
  Codec.W.u32 b sel.Core.Select.evaluations;
  Codec.W.f64 b sel.Core.Select.eps_r;
  Codec.W.float_array b sel.Core.Select.per_path_eps;
  Codec.W.float_array b t.mu;
  Codec.W.mat b t.a_mat;
  Codec.W.contents b

let to_bytes t = frame ~magic ~version:current_version (encode_payload t)

(* ------------------------------------------------------------------ *)
(* Decoding *)

(* Fields are read in file order by sequential let-bindings (record
   fields evaluate in unspecified order). Every structural check lives
   in [make] and [Predictor.build]; [Codec.decode] turns their
   [Invalid_argument] into a corrupt payload. *)
let decode_payload r =
  let fingerprint = Codec.R.str r in
  let t_cons = Codec.R.f64 r in
  let eps = Codec.R.f64 r in
  let kappa = Codec.R.f64 r in
  let n_segments = Codec.R.u32 r in
  let indices = Codec.R.int_array r in
  let rank = Codec.R.u32 r in
  let effective_rank = Codec.R.u32 r in
  let evaluations = Codec.R.u32 r in
  let eps_r = Codec.R.f64 r in
  let per_path_eps = Codec.R.float_array r in
  let mu = Codec.R.float_array r in
  let a = Codec.R.mat r in
  let predictor = Core.Predictor.build ~a ~mu ~rep:indices in
  make ~fingerprint ~t_cons ~eps ~kappa ~n_segments ~a ~mu
    { Core.Select.indices; predictor; rank; effective_rank; eps_r; per_path_eps;
      evaluations }

let of_bytes ?(file = "<bytes>") s =
  unframe ~file ~magic ~version:current_version s decode_payload

(* ------------------------------------------------------------------ *)
(* Files *)

(* Crash-safe: the bytes go to a same-directory temp file which is
   fsynced and then atomically renamed over [path]. A crash at any
   instant leaves either the previous artifact or the new one on disk,
   never a torn hybrid — which is what lets a serving process SIGHUP-
   reload from [path] while another process rewrites it. The serving
   layer's checkpoint writer reuses this exact idiom. *)
let write_file_atomic path bytes =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let remove_quiet f = try Sys.remove f with Sys_error _ -> () in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.of_string bytes in
        let n = Bytes.length b in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write fd b !off (n - !off)
        done;
        Unix.fsync fd);
    Sys.rename tmp path;
    (* durability of the rename itself: fsync the directory entry;
       best-effort — not every filesystem lets you open a directory *)
    (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
     | dfd ->
       (try Unix.fsync dfd with Unix.Unix_error _ -> ());
       (try Unix.close dfd with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ -> ())
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    remove_quiet tmp;
    Error (Core.Errors.Io { file = path; msg })
  | exception Unix.Unix_error (err, fn, _) ->
    remove_quiet tmp;
    Error
      (Core.Errors.Io
         { file = path; msg = Printf.sprintf "%s: %s" fn (Unix.error_message err) })

let save path t = write_file_atomic path (to_bytes t)

let load path = Result.bind (Core.Errors.read_file path) (of_bytes ~file:path)

(* ------------------------------------------------------------------ *)

(* Bit-exact equality via the canonical encoding: two artifacts are
   equal iff they serialize identically (floats compared as bits). *)
let equal a b = String.equal (to_bytes a) (to_bytes b)

let describe t =
  let sel = t.selection in
  let r = Array.length sel.Core.Select.indices in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "format:          %s v%d" magic current_version;
  line "fingerprint:     %s" (if t.fingerprint = "" then "(none)" else t.fingerprint);
  line "t_cons:          %.3f ps" t.t_cons;
  line "tolerance eps:   %.2f%% (achieved eps_r %.2f%%)" (100.0 *. t.eps)
    (100.0 *. sel.Core.Select.eps_r);
  line "kappa:           %.2f" t.kappa;
  line "target paths:    %d (%d segments, %d variables)" t.n_paths t.n_segments
    t.n_vars;
  line "representatives: %d of %d (rank %d, effective rank %d)" r t.n_paths
    sel.Core.Select.rank sel.Core.Select.effective_rank;
  line "predicted paths: %d" (t.n_paths - r);
  line "payload:         %d bytes" (String.length (to_bytes t) - header_size);
  Buffer.contents buf
