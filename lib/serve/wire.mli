(** The server's wire format: newline-delimited JSON.

    Reuses {!Core.Report.json} as the value type (so CLI and tests
    pattern-match one vocabulary) and adds the two halves the report
    module does not need: a parser, and a {e round-trip-exact} printer.
    {!Core.Report.to_string} prints floats at [%.12g] for human
    consumption; predictions served to a tester must instead survive
    print-then-parse bit-for-bit, so {!print} writes the 17 significant
    digits of [%.17g] (sufficient for IEEE-754 doubles) with its own
    exact digit writer rather than Printf. Non-finite floats map to
    [null] (JSON has no NaN); measurement decoding maps [null] back to
    [nan], the library-wide missing-entry encoding. *)

type json = Core.Report.json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Floats of float array
  | String of string
  | List of json list
  | Obj of (string * json) list

val print : json -> string
(** Compact, single-line, float-exact rendering: the value written into
    a fresh sink-less {!Writer}, then copied out once.

    A finite float prints as exactly the bytes of
    [Printf.sprintf "%.17g"], plus [".0"] when those hold neither ['.']
    nor an exponent, so it re-parses as a [Float] with the same bits.
    For a decimal exponent k in [[-4, 16]] (the range [%.17g] prints
    without an exponent, which covers every delay in picoseconds)
    Printf is not used:
    - k is [floor(e2 * log10 2)] from the float's binary exponent e2,
      plus one when the value reaches the next power of ten; the
      rounding step below reports an off-by-one, which is then
      corrected;
    - the 17 digits come from an exact product: [|x| * 10^(16-k)] is
      split into [hi + lo] with [Float.fma], and [lo] rounds [hi]
      half-to-even to a 17-digit integer;
    - that integer is cut into 1 + 8 + 8 digits by constant divisors,
      each 8 written as one word from a table of digit pairs; the
      decimal point is placed in the output buffer and trailing zeros
      are trimmed by a byte scan.
    Printf is still used for zero, subnormals, exponents outside
    [[-4, 16]] and a rounding carry to [10^17]. A [Floats] row prints as
    a JSON array, non-finite entries as [null]. *)

(** A byte buffer that JSON values are written into.

    Without a sink it grows as needed and holds the whole output:
    {!print} and the in-process [Serve.handle] use one of those. A writer
    with a sink holds at most 64 KiB: when the next write would overflow
    that store, it hands the bytes it holds to the sink and reuses the
    store. A server connection and a client both write through one, so a
    0.6 MB response leaves in 64 KiB pieces while later rows are still
    being encoded. The bytes the sink receives, in order, then the
    {!Writer.flush}ed tail, are exactly the bytes {!print} gives. *)
module Writer : sig
  type t

  val create : ?sink:(Bytes.t -> int -> int -> unit) -> unit -> t
  (** An empty writer. [sink b ofs len] must take bytes [[ofs, ofs +
      len)] of [b] before it returns; the writer reuses [b] afterwards.
      An exception the sink raises (a socket write's [Timeout], say)
      propagates out of the write that triggered it, and the writer's
      output is then undefined until {!reset}. *)

  val reset : t -> unit
  (** Empty the writer, keeping its store. *)

  val json : t -> json -> unit
  (** Append the bytes {!print} gives for the value. *)

  val add_char : t -> char -> unit

  val flush : t -> unit
  (** Hand the bytes held to the sink, and empty the writer. A writer
      without a sink keeps them. *)

  val contents : t -> string
  (** A copy of the bytes held. *)
end

val parse : string -> (json, string) result
(** Strict single-value JSON parser (objects, arrays, strings with
    escapes, numbers, [true]/[false]/[null]); trailing garbage is an
    error. Numbers without [./e] parse as [Int], others as [Float].
    Arrays and objects nested more than 64 deep are an error, reported
    as soon as the 65th unclosed bracket is read.

    An array whose cells are all numbers that parse as [Float] comes
    back as one unboxed [Floats] row; every other array, [[]] included,
    is a [List]. A row is read cell by cell into a float array, and at
    its first other cell (an int, [null], a string, a nested value) the
    cells so far become [Float]s and the rest of the array is read as a
    list from that cell on, so each cell and each error message and
    offset is the one the general reader gives. {!print} writes a
    [Floats] row exactly as the list of its [Float]s, so [print] of a
    parsed tree gives back the input's bytes whenever [print] wrote
    them.

    Numbers are read in place and exactly: every [Int] is the value of
    [int_of_string] and every [Float] has the bits of [float_of_string]
    on the same token. A token of the canonical grammar
    [-?[0-9]+(.[0-9]+)?([eE][+-]?[0-9]+)?] is read directly when its
    value is proven: an int of at most 18 digits, or a float of at most
    18 significant digits that is one exact IEEE operation (Clinger's
    fast path) or, for {!print}'s 17-digit fixed notation, an
    fma-verified quotient. Every other token, and any quotient the
    verification does not prove correctly rounded, falls back to those
    standard readers, so results and error messages do not depend on
    which path a token takes. *)

(** {1 Framing}

    Requests and responses are newline-delimited; the framer does the
    incremental splitting, tolerates CRLF terminators, and enforces a
    per-line byte cap so a newline-less flood cannot grow a buffer
    without bound — past the cap the line's bytes are discarded as they
    arrive and the line surfaces as {!Framer.Too_long}.

    {!Framer.feed} looks for ['\n'] eight bytes at a time (one 64-bit
    load and a zero-byte test per word; the tail of a chunk byte by
    byte). A line that ends in the chunk it started in is copied out of
    that chunk once; a line split across chunks is gathered in the
    framer's store and copied out once when its newline arrives. The
    store holds at most the cap. It is given back when the cap trips
    and after a line longer than 4 MiB is handed out, so a framer that
    once held a long line does not keep that storage for the life of
    its connection. *)

val default_max_line : int
(** 16 MiB — comfortably above any sane measurement batch. *)

module Framer : sig
  type t

  type item =
    | Line of string   (** one complete line, terminator(s) stripped *)
    | Too_long of int  (** an over-cap line ended; its total byte count *)

  val create : ?max_line:int -> unit -> t
  (** [max_line] defaults to {!default_max_line}. *)

  val feed : t -> Bytes.t -> int -> int -> unit
  (** Feed [len] bytes at [ofs]; completed lines queue up for {!pop}. *)

  val pop : t -> item option

  val partial : t -> bool
  (** An unterminated line is pending (buffered or being discarded) —
      the signal that a request is mid-flight for deadline purposes. *)

  (* lint: allow-next unused-export: test_serve checks the line cap through it *)
  val overflowing : t -> bool
  (** The current unterminated line already exceeds the cap; servers
      can reject without waiting for the newline that may never come. *)
end

(** {1 Accessors} *)

val member : string -> json -> json option
(** Field lookup; [None] when absent or when the value is not an
    object. *)

val to_float : json -> float option
(** [Int], [Float], or [Null] (as [nan]); [None] otherwise. *)

(** {1 Measurement matrices} *)

val mat_to_json : Linalg.Mat.t -> json
(** A [List] with one unboxed [Floats] row per die; {!print} renders
    non-finite entries as [null]. *)

val mat_of_json : cols:int -> json -> (Linalg.Mat.t, string) result
(** Inverse of {!mat_to_json} on the parsed wire form: a non-empty list
    of rows of width [cols], each a [Floats] row (copied in whole) or a
    list of numbers and [Null]s; [Null] entries become [nan]. *)
