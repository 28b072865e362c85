(** Timing graph view of a netlist.

    Nodes are signal codes (see {!Circuit.Netlist.encode_signal}); each
    gate [g] contributes one timing arc per fanin, from the fanin signal
    to the gate-output signal, carrying gate [g]'s delay. A timing path
    is therefore fully described by its gate sequence, and the path
    delay is the sum of the member gates' delays. *)

type arc = {
  src : int;   (** source signal code *)
  gate : int;  (** driven gate; the arc's delay is this gate's delay *)
  dst : int;   (** signal code of the gate output *)
}

type t

val build : Circuit.Netlist.t -> t

(* lint: allow-next unused-export: test_timing checks [build] through it *)
val num_nodes : t -> int
(** [num_inputs + num_gates] signal codes. *)

val arcs_from : t -> int -> arc list
(** Outgoing timing arcs of a signal code. *)

val is_po : t -> int -> bool
(** Whether the signal code is a primary output. *)

val pi_codes : t -> int array

val rest_bounds : t -> gate_value:(int -> float) -> float array
(** [rest_bounds t ~gate_value] returns, per signal code [v], the
    maximum over all v->PO suffixes of the sum of [gate_value g] along
    the suffix (0 when [v] is itself a PO, [neg_infinity] when no PO is
    reachable). Used for branch-and-bound pruning bounds with
    [gate_value] = nominal delay or = per-gate sigma. *)
