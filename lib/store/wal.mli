(** Append-only write-ahead log for fleet observations.

    The durability contract of the serving layer: an [observe] die is
    journaled here — fsync'd — {e before} its acknowledgement leaves
    the server, so a [kill -9] at any instant loses nothing a client
    was told it had. Boot-time recovery loads the last checkpoint and
    {!fold}s the WAL suffix back into the monitor.

    {2 On-disk layout}

    A WAL is a directory of segment files [wal-<seq20>.log], where
    [<seq20>] is the zero-padded first sequence number the segment
    holds (names sort in replay order). Each record is framed

    {v
    offset  size  field
    0       4     frame length (8 + payload bytes), u32 LE
    4       4     CRC-32 (IEEE) of bytes 8.., u32 LE
    8       8     sequence number, u64 LE (strictly +1 per record)
    16      -     payload (opaque; callers use Codec for bit-exact
                  float round-trips, matching the PSA1 artifact codec)
    v}

    Appends are batched: one {!append} call frames every payload,
    issues a single [write] and a single [fsync], and only then
    returns — the fsync {e is} the ack barrier. A crash mid-append
    leaves a torn tail; {!open_} scans the last segment and truncates
    it back to the last intact record, so the log is always
    append-clean after open. Segments rotate at [segment_bytes];
    {!prune} deletes sealed segments fully covered by a checkpoint,
    keeping [retain_segments] sealed segments as a safety margin.

    Thread safety: {!append} and {!prune} serialize on an internal
    mutex and are safe from any thread (connection workers journal
    concurrently). {!fold} reads the directory without the handle and
    must not race a live writer. *)

type t

type config = {
  segment_bytes : int;
      (** Rotate the active segment once it reaches this many bytes.
          Default [1 lsl 22] (4 MiB). *)
  retain_segments : int;
      (** Sealed, checkpoint-covered segments kept by {!prune} as a
          safety margin before deletion. Default [1]. *)
}

val default_config : config

val open_ : ?config:config -> string -> (t, Core.Errors.t) result
(** Open (creating the directory and first segment if needed) and
    recover: the last segment is scanned record-by-record and
    physically truncated at the first torn or corrupt frame, and the
    next sequence number is positioned after the last intact record.
    Fails with a typed [Io]/[Corrupt_artifact] error; never raises. *)

val next_seq : t -> int
(** The sequence number the next appended record will carry.
    Sequence numbers start at 1. *)

val append : t -> string list -> (int, Core.Errors.t) result
(** [append t payloads] journals the batch: consecutive sequence
    numbers, one write, one fsync, then returns the sequence number of
    the {e last} record (first is [last - length payloads + 1]).
    Rotates the segment first when the active one is full. Raises
    [Invalid_argument] on an empty batch or a payload larger than
    {!Codec.max_len}; I/O failures are typed errors (the caller must
    not ack). *)

val fold :
  ?from_seq:int ->
  string ->
  init:'a ->
  f:('a -> seq:int -> string -> 'a) ->
  ('a * int, Core.Errors.t) result
(** [fold dir ~init ~f] replays every intact record in sequence order,
    returning the accumulator and the highest sequence number seen
    ([0] when the log is empty). Records with [seq < from_seq]
    (default [1]) are skipped without being handed to [f]. A torn or
    corrupt tail in the {e last} segment ends the replay silently —
    that is the crash the log exists to absorb; corruption anywhere
    else (a bad frame mid-log, a sequence gap) is data loss and
    reports [Corrupt_artifact]. Segments are read one at a time through
    {!Core.Errors.read_file}; an unreadable one is [Io] naming it. *)

val prune : t -> upto_seq:int -> (int, Core.Errors.t) result
(** Retention: delete sealed segments whose every record has
    [seq <= upto_seq] (i.e. is captured by a checkpoint), always
    keeping the active segment and the newest [retain_segments] sealed
    ones. Returns the number of segments deleted. *)

val close : t -> unit
(** Fsync and close the active segment. Idempotent; the handle must
    not be used afterwards. *)
