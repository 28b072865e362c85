(** Little-endian binary primitives and CRC-32 for the artifact codec.

    Deliberately boring: fixed-width little-endian integers, IEEE-754
    doubles by bit pattern (so floats round-trip {e exactly}), and
    length-prefixed aggregates. The reader bounds-checks every access
    and raises {!Truncated}/{!Malformed} instead of [Invalid_argument]
    so {!Store} can map decoder failures onto one typed error. *)

exception Truncated
(** The payload ended before the field being read. *)

exception Malformed of string
(** A length prefix or dimension is negative or absurdly large. *)

val max_len : int
(** Upper bound on any length prefix the reader will accept (also the
    WAL's frame-size sanity bound): a length beyond this is
    {!Malformed} garbage, not data. *)

val crc32 : ?pos:int -> string -> int
(** IEEE 802.3 (reflected, poly 0xEDB88320) CRC of the string from
    [pos] (default 0) to its end, in [0, 2^32); 0 when [pos] is past
    the end. Computed slice-by-8 (8 bytes per step, one lookup per byte
    in eight derived tables, the tail bytewise); the value is the
    bytewise CRC's, so files written by earlier versions still load. *)

module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val u32 : t -> int -> unit
  (** The value must fit in 32 bits; raises {!Malformed} otherwise. *)

  val int : t -> int -> unit
  (** A non-negative int as two u32s, low word first; raises
      {!Malformed} on a negative value. *)

  val f64 : t -> float -> unit
  (** Exact, by IEEE bit pattern. *)

  val str : t -> string -> unit
  val int_array : t -> int array -> unit
  val float_array : t -> float array -> unit
  val mat : t -> Linalg.Mat.t -> unit
end

module R : sig
  type t

  val skip_rest : t -> unit
  (** Move to the end, for a decoder that reads only a prefix. *)

  val u32 : t -> int

  val int : t -> int
  (** Inverse of [W.int]; a high word of 2{^30} or more is {!Malformed}. *)

  val f64 : t -> float
  val str : t -> string
  val int_array : t -> int array
  val float_array : t -> float array
  val mat : t -> Linalg.Mat.t
end

val decode : ?pos:int -> string -> (R.t -> 'a) -> ('a, string) result
(** Run a decoder over the string from [pos] (default 0) to its end.
    Never raises: {!Truncated}, {!Malformed}, an [Invalid_argument]
    from a constructor the decoder calls, and bytes left over after it
    returns are all [Error msg]. *)
