(** The serving layer's durability codec: WAL observation records and
    the checkpoint file.

    Everything here rides the artifact codec ({!Store.Codec}), so every
    float round-trips {e bit-exactly}: recovered state is not "close
    to" the pre-crash state, it {e is} the pre-crash state.

    A checkpoint file is the store's framed container ({!Store.frame},
    the same header a PSA1 artifact has) with its own magic ["PSC1"],
    version 2, around a payload of the generation counter and the
    monitor's own encoding ({!Monitor.encode}). (Version 1 also carried
    an incremental-regression block the monitor no longer keeps; such a
    file loads as a typed [Version_mismatch], and boot falls back to a
    cold start plus a full WAL replay, keeping the generation:
    {!checkpoint_generation}.) It is written with
    {!Store.write_file_atomic} — a crash mid-checkpoint leaves the
    previous checkpoint, never a torn one — and read back through
    {!Core.Errors.read_file} and {!Store.unframe}. *)

(* lint: allow-next unused-export: test_monitor frames checkpoints by hand *)
val ckpt_version : int

(** {2 WAL observation records} *)

val encode_obs : Monitor.obs -> string
(** One journaled die as a WAL record payload. *)

val decode_obs : string -> (Monitor.obs, string) result
(** Inverse of {!encode_obs}; [Error] names the defect (an unknown
    record kind from a newer writer, a truncated field). Never raises,
    and accepts only canonical bytes: an [Ok] value re-encodes to the
    input exactly. *)

(** {2 Checkpoint files} *)

val save_checkpoint :
  string -> gen:int -> Monitor.t -> (unit, Core.Errors.t) result
(** Atomic-rename write of [gen] and the monitor's encoding to the
    given path. Monitor thread only, like {!Monitor.encode}. *)

val load_checkpoint :
  ?config:Monitor.config ->
  reselect:(Linalg.Mat.t -> (int * int * float, string) result) ->
  string ->
  ((int * Monitor.t) option, Core.Errors.t) result
(** The generation and the monitor {!Monitor.decode} builds from the
    payload, under [config] and with [reselect]. [Ok None] when no
    checkpoint exists yet (a first boot); [Error] is a typed
    [Bad_magic]/[Version_mismatch]/[Corrupt_artifact]/[Io] — the
    caller decides whether to fall back to a cold start plus full-WAL
    replay. Never raises. *)

val checkpoint_generation : string -> int option
(** The generation of a checkpoint whose frame is intact: magic, length
    and CRC check out under any version from 1 to {!ckpt_version}, each
    of which writes the generation first. It names a checkpoint that
    {!load_checkpoint} rejects too. [None] when the file is missing,
    unreadable, of an unknown version, or fails its CRC, so no
    generation in it can be trusted. Never raises. *)
