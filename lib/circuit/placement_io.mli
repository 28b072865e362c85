(** Placement files.

    `.bench` and structural Verilog carry no placement, so parsed
    netlists get a deterministic synthetic placement — fine for
    experiments, wrong for a real chip. This module reads and writes a
    minimal placement format (one [gate_name x y] line per gate,
    normalized die coordinates in [0, 1]) so a real placement can be
    attached to a parsed netlist before building the
    spatial-correlation model:

    {v
      # gate  x  y
      g0  0.125  0.500
      g1  0.250  0.375
    v}

    Strings in, strings out: [Core.Errors.parse_placement_file] is the
    file entry point. *)

exception Parse_error of int * string

(* lint: allow-next unused-export: no production caller; only its own tests run it *)
val print : Netlist.t -> string

val parse : string -> (string * (float * float)) list
(** Raises {!Parse_error} on malformed lines or coordinates outside
    [0, 1]. *)

(* lint: allow-next unused-export: no production caller; only its own tests run it *)
val apply : Netlist.t -> (string * (float * float)) list -> Netlist.t
(** Rebuild the netlist with the given placement. Gates missing from
    the list keep their current position; unknown gate names raise
    [Failure]. *)
