(** Structured errors for the ingestion and numerical layers.

    The parsers and numerical kernels raise module-local exceptions
    ([Parse_error], [No_convergence], [Failure], ...). This module
    gives the application layer one typed vocabulary for all of them,
    [result]-returning entry points for every file reader, and
    sysexits-style exit codes so the CLI can fail with a meaningful
    status instead of an uncaught-exception backtrace. *)

type t =
  | Parse of { file : string; line : int option; msg : string }
      (** Syntax or structural error in an input file. *)
  | Io of { file : string; msg : string }
      (** The file could not be read at all. *)
  | Numerical of { op : string; msg : string }
      (** A numerical kernel failed (non-convergence, indefiniteness). *)
  | No_critical_paths of { t_cons : float; yield : float }
      (** Path extraction produced an empty target pool. *)
  | Invalid_input of string  (** Caller-side argument error. *)
  | Bad_data of string  (** Semantically invalid data (e.g. NaN delays). *)
  | Bad_magic of { file : string }
      (** The file is not a pathsel selection artifact at all. *)
  | Version_mismatch of { file : string; found : int; expected : int }
      (** The artifact was written by an incompatible format version. *)
  | Corrupt_artifact of { file : string; msg : string }
      (** Truncation, checksum failure, or an inconsistent payload. *)

exception Error of t

val raise_error : t -> 'a

val to_string : t -> string
(** Human-readable one-line rendering, [file:line: msg] style. *)

val exit_code : t -> int
(** sysexits.h mapping: 64 usage, 65 data, 66 no input, 70 software. *)

val of_exn : file:string -> exn -> t option
(** Classify a raised exception; [None] for exceptions that are not
    ours to interpret (e.g. [Out_of_memory]). *)

val catch : (unit -> 'a) -> ('a, t) result
(** Run [f], converting any recognized exception into a typed error
    with a generic file tag; unrecognized exceptions are re-raised. *)

val get_ok : ('a, t) result -> 'a
(** The value, or {!Error} raised with the typed error: for code that
    reports failures at one boundary (the CLI's [handle]). *)

(** {2 Reading files}

    {!read_file} is the one whole-file reader: every text format below,
    the artifact store, the serving layer's checkpoints and the WAL's
    segment scans read through it. The format modules
    ({!Circuit.Bench_io}, {!Circuit.Verilog_io}, {!Circuit.Liberty})
    parse and print strings only; the [parse_*_file] functions here are
    their file entry points, and tag a parse error with the path once. *)

val read_file : string -> (string, t) result
(** The whole file, read in one pass into a buffer presized from its
    length. A file that cannot be opened or read is [Io], whose [msg]
    is the OS reason alone (the path is in [file]). *)

val parse_bench_file :
  ?lenient:bool -> string -> (Circuit.Netlist.t * string list, t) result
(** Read a [.bench] netlist named after the file's basename. With
    [~lenient:true], unparseable lines and gates with undefined inputs
    are skipped; the string list carries one warning per skipped
    construct (empty when strict). *)

val parse_verilog_file : string -> (Circuit.Netlist.t, t) result

val parse_liberty_file : string -> (Circuit.Liberty.Library.t, t) result
