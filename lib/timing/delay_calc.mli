(** NLDM (non-linear delay model) gate-delay calculation.

    A topological sweep propagates transition times (slews): each
    gate's delay and output slew come from its Liberty lookup tables at
    the worst input slew and the capacitive load it drives
    (sum of fanout input-pin capacitances plus an estimated wire
    capacitance per fanout). This replaces the linear
    intrinsic+fanout model of {!Circuit.Cell.delay} when a [.lib] is
    available — the same role Synopsys DC's delay calculator plays in
    the paper's flow. Delays are returned in picoseconds (Liberty
    tables are in ns). *)

exception Missing_cell of string
(** Raised by {!run} when a netlist cell has no entry in the Liberty
    library. *)

type config = {
  input_slew : float;       (** slew at primary inputs, ns; default 0.05 *)
  wire_cap_per_fanout : float;  (** pF added to the load per sink; default 0.002 *)
  primary_output_cap : float;   (** pF load of a primary output; default 0.004 *)
}

type t = {
  delays : float array;   (** per gate, ps *)
  slews : float array;    (** per gate output, ns *)
  loads : float array;    (** per gate output, pF *)
}

val run :
  ?config:config -> Circuit.Liberty.Library.t -> Circuit.Netlist.t -> t
(** Raises [Failure] if a netlist cell is missing from the library. *)

val delay_model :
  ?config:config ->
  Circuit.Liberty.Library.t ->
  Circuit.Netlist.t ->
  model:Variation.model ->
  Delay_model.t
(** Convenience: a {!Delay_model.t} whose nominal delays come from the
    NLDM sweep (the sensitivity structure is unchanged). *)
