(** Timeout-wrapped socket primitives.

    Every read, write and connect in the serving and chaos layers goes
    through these wrappers, each with an explicit wall-clock budget —
    the [no-unbounded-io] lint rule makes a raw
    [Unix.read]/[Unix.write]/[Unix.connect] anywhere else under
    [lib/serve/] or [lib/chaos/] a build error. *)

exception Timeout
(** The wall-clock budget expired before the operation completed. *)

exception Closed
(** The peer is gone: zero-byte write, [EPIPE] or [ECONNRESET]. *)

type readiness = [ `Ready | `Timeout | `Interrupted ]
(** [`Interrupted] is an EINTR (a signal landed); it is {e not} a
    timeout — the caller decides whether its deadline has passed. *)

val wait_readable : Unix.file_descr -> float -> readiness

type read_result = Data of int | Eof | Read_timeout

val read :
  Unix.file_descr -> Bytes.t -> int -> int -> timeout:float -> read_result
(** One chunk read within [timeout] seconds. EINTR re-waits on the
    remaining budget; a reset connection reads as [Eof]. *)

val write_all : Unix.file_descr -> string -> timeout:float -> unit
(** Write the whole string within [timeout] seconds or raise
    {!Timeout} (slow reader) / {!Closed} (peer gone). *)

val write_bytes :
  Unix.file_descr -> Bytes.t -> int -> int -> timeout:float -> unit
(** [write_bytes fd b ofs len ~timeout]: {!write_all} for bytes
    [[ofs, ofs + len)] of [b], so a buffer is sent without a copy to a
    string. Raises [Invalid_argument] on a range outside [b]. *)

val connect : Unix.file_descr -> Unix.sockaddr -> timeout:float -> unit
(** Non-blocking connect with a deadline; the descriptor is returned to
    blocking mode on completion. Raises {!Timeout} or the underlying
    [Unix.Unix_error]. *)
