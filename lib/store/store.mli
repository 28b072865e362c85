(** Persistent selection artifacts.

    The paper's economics are one-time vs per-die: the SVD/QR selection
    (Algorithms 1-3) runs {e once per design}, then every fabricated
    die is predicted from a handful of measurements. This module makes
    the split durable: what a die-time predictor needs and cannot
    derive — the {!Core.Select} result, the per-path means, the
    sensitivity matrix [A], and the config/seed fingerprint that
    produced them — is written to a versioned, checksummed binary file
    that a serving process loads and rebuilds its predictors from.

    {2 The framed-file container}

    Selection artifacts and the serving layer's recovery checkpoints
    share one container, encoded by {!frame} and checked by {!unframe}
    and nowhere else:

    {v
    offset  size  field
    0       4     magic
    4       4     format version, u32 LE
    8       8     payload length, u64 LE
    16      4     CRC-32 (IEEE) of the payload, u32 LE
    20      -     payload
    v}

    A selection artifact is magic ["PSA1"], version 3; the serving
    layer's recovery checkpoint ([Serve.Durable]) is ["PSC1"],
    version 1. (WAL segments are a stream of CRC frames, not one
    container; see {!Wal}.)

    {2 Artifact payload (version 3)}

    The payload is a fixed positional sequence of length-prefixed
    fields; all integers are little-endian, all floats IEEE-754 doubles
    by bit pattern, so every value round-trips {e exactly}:

    - provenance: fingerprint, t_cons, eps, kappa, n_segments;
    - the selection record: indices, rank, effective_rank,
      evaluations, eps_r, per_path_eps;
    - the mean vector [mu] and the sensitivity matrix [A].

    Nothing the predictor derives is stored. [n_paths] and [n_vars]
    are [A]'s dimensions; the Theorem-2 weights, the error sigmas and
    the robust predictor's Gram/cross blocks are rebuilt at decode by
    the same {!Core.Predictor.build} [~a ~mu ~rep:indices] call
    {!of_selection} makes, so a loaded predictor is the saved one by
    construction, bit for bit at any pool size. [eps_r] and [per_path_eps] are stored:
    the selection computed them against its own [t_cons] and [kappa],
    which need not be this record's.

    Versioning policy: the version is bumped on {e any}
    payload layout change; readers refuse both older and newer versions
    ({!Core.Errors.Version_mismatch}) rather than guess — artifacts are
    cheap to regenerate from the design database, silent misreads are
    not. A wrong magic is {!Core.Errors.Bad_magic}; truncation, a CRC
    mismatch, or an inconsistent payload (bad indices, a [mu] or
    [per_path_eps] of the wrong length, trailing bytes) is
    {!Core.Errors.Corrupt_artifact}. [load] never raises on bad input:
    every failure is a typed [Error] with a sysexits code. *)

module Codec = Codec
(** The little-endian bit-exact binary primitives behind the artifact
    payload — shared with {!Wal} record payloads and the serving
    layer's checkpoint codec. *)

module Wal = Wal
(** Append-only write-ahead log: the durability side of the store. *)

type t = {
  fingerprint : string;
      (** free-form provenance: circuit, seeds, config of the producing
          run — compared by operators, not parsed *)
  t_cons : float;        (** timing constraint the selection targets *)
  eps : float;           (** requested worst-case tolerance *)
  kappa : float;         (** WC quantile multiplier used *)
  n_paths : int;         (** target-pool size |P_tar| (rows of [a_mat]) *)
  n_segments : int;      (** segment count of the pool *)
  n_vars : int;          (** variation-variable count (columns of [a_mat]) *)
  selection : Core.Select.t;
      (** its predictor is [Core.Predictor.build ~a:a_mat ~mu ~rep:indices] *)
  mu : Linalg.Vec.t;     (** full per-path mean vector, length [n_paths] *)
  a_mat : Linalg.Mat.t;
      (** full sensitivity matrix [A] ([n_paths] x [n_vars]) — what
          yield estimation and per-die tuning consume *)
}

(* lint: allow-next unused-export: test_store frames artifacts by hand *)
val magic : string

val current_version : int

val header_size : int
(** Bytes before the payload: magic + version + length + CRC. *)

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version payload] is the container around [payload].
    [magic] must be 4 bytes ([Invalid_argument] otherwise). *)

val unframe :
  file:string ->
  magic:string ->
  version:int ->
  string ->
  (Codec.R.t -> 'a) ->
  ('a, Core.Errors.t) result
(** [unframe ~file ~magic ~version bytes decode] checks the container
    and runs [decode] over the payload in place (no copy), through
    {!Codec.decode}. A wrong magic is [Bad_magic], another version is
    [Version_mismatch]; a short header, a length that disagrees with
    the file, a CRC mismatch, or any decoder failure (including bytes
    [decode] leaves unread) is [Corrupt_artifact]. [file] tags the
    error. Never raises. *)

val of_selection :
  ?fingerprint:string ->
  ?kappa:float ->
  ?n_segments:int ->
  t_cons:float ->
  eps:float ->
  a:Linalg.Mat.t ->
  mu:Linalg.Vec.t ->
  Core.Select.t ->
  t
(** Package a selection over sensitivity matrix [a] (paths x variables)
    and mean vector [mu], rebuilding its predictor from them exactly as
    {!of_bytes} will. Raises [Invalid_argument] on a dimension
    mismatch or invalid indices. *)

val predictor : t -> Core.Predictor.t
(** The Theorem-2 predictor ([selection.predictor]). *)

val robust : t -> Core.Robust.t
(** The fault-tolerant view of {!predictor}; allocates nothing. *)

(* lint: allow-next unused-export: [save] runs it; test_store checks the codec *)
val to_bytes : t -> string

(* lint: allow-next unused-export: [load] runs it; test_store checks the codec *)
val of_bytes : ?file:string -> string -> (t, Core.Errors.t) result
(** [file] tags the typed error (default ["<bytes>"]). *)

val write_file_atomic : string -> string -> (unit, Core.Errors.t) result
(** The crash-safe write idiom behind {!save}, exposed for other
    durable files (the serving layer's recovery checkpoints): bytes go
    to a same-directory temp file, are fsynced, and are atomically
    renamed over the destination; the directory entry is fsynced
    best-effort. A crash leaves either the old file or the new one,
    never a torn hybrid. *)

val save : string -> t -> (unit, Core.Errors.t) result
(** Crash-safe write: bytes land in a same-directory temp file, are
    fsynced, and are atomically renamed over the destination. A crash
    mid-save leaves either the old artifact or the new one — never a
    torn file — so a server may SIGHUP-reload the path while a writer
    replaces it. *)

val load : string -> (t, Core.Errors.t) result
(** {!Core.Errors.read_file}, then {!of_bytes}. *)

(* lint: allow-next unused-export: test_store checks round trips with it *)
val equal : t -> t -> bool
(** Bit-exact equality of every stored field (NaN-safe: compares float
    bit patterns, not values). *)

val describe : t -> string
(** Multi-line human-readable summary for [pathsel inspect]. *)
