(** SDF (Standard Delay Format) annotation, version 3.0 subset.

    The NLDM sweep's per-gate delays can be exported as an SDF file —
    the lingua franca for handing annotated delays to downstream
    signoff/simulation tools — and read back for cross-checking. The
    subset covers one [IOPATH] per gate (all input pins to the output,
    equal rise/fall, as the rest of this library models delays) in a
    flat [DELAYFILE]. Times are written in ps with [(TIMESCALE 1ps)].

    Strings in, strings out: read a file with [Core.Errors.read_file]
    and parse it with {!read} under [Core.Errors.protect]. *)

exception Parse_error of int * string

exception Annotate_error of string
(** Raised by {!annotate}/{!annotate_lenient} when the delay list cannot
    cover the netlist (missing instances, or no usable delays at all). *)

val write : Circuit.Netlist.t -> delays:float array -> string
(** [write nl ~delays] renders an SDF 3.0 document; [delays] is per
    gate id, in ps. Raises [Invalid_argument] on length mismatch. *)

(* lint: allow-next unused-export: no production caller; only its own tests run it *)
val read : string -> (string * float) list
(** [read text] returns the [(instance_name, iopath_delay_ps)] pairs of
    a flat SDF document (the typical rise value of the first IOPATH per
    cell entry). Tolerant of whitespace and comments. *)

(* lint: allow-next unused-export: no production caller; only its own tests run it *)
val annotate : Circuit.Netlist.t -> (string * float) list -> float array
(** Map parsed delays back onto gate ids by instance name; gates
    missing from the SDF raise [Failure] naming how many instances
    were unannotated and the first few of them. *)

(* lint: allow-next unused-export: no production caller; only its own tests run it *)
val annotate_lenient :
  Circuit.Netlist.t -> (string * float) list -> float array * string list
(** Skip-and-warn variant: gates missing from the SDF (or annotated
    with a non-finite value) get the median of the usable delays, with
    one warning each. Raises [Failure] only when no usable delay
    exists at all. *)
