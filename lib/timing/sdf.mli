(** SDF (Standard Delay Format) writer, version 3.0 subset.

    The NLDM sweep's per-gate delays can be exported as an SDF file —
    the lingua franca for handing annotated delays to downstream
    signoff/simulation tools. The subset covers one [IOPATH] per gate
    (all input pins to the output, equal rise/fall, as the rest of this
    library models delays) in a flat [DELAYFILE]. Times are written in
    ps with [(TIMESCALE 1ps)]. *)

val write : Circuit.Netlist.t -> delays:float array -> string
(** [write nl ~delays] renders an SDF 3.0 document; [delays] is per
    gate id, in ps. Raises [Invalid_argument] on length mismatch. *)
