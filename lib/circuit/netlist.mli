(** Gate-level combinational netlists.

    A netlist is a DAG of gates over primary inputs. Sequential elements
    of the original benchmarks are modelled the standard way for static
    timing: a flip-flop's Q pin is a pseudo primary input and its D pin a
    pseudo primary output, so every timing path is purely combinational.

    Gates carry a physical placement on the unit die [0,1] x [0,1] used
    by the spatial-correlation model. *)

type gate = {
  id : int;             (** dense index, [0 .. num_gates - 1] *)
  name : string;
  cell : Cell.kind;
  fanin : int array;    (** signal ids of the inputs, see {!signal} *)
  x : float;            (** placement on the unit die *)
  y : float;
}

(** A signal is either a primary input or the output of a gate. *)
type signal = Pi of int | Gate_out of int

type t

val build :
  name:string ->
  num_inputs:int ->
  gates:(string * Cell.kind * signal array * (float * float)) list ->
  outputs:signal list ->
  t
(** Builds and validates a netlist. Gates must be listed in a valid
    topological order (each gate's fanin refers to primary inputs or
    previously listed gates). Raises [Invalid_argument] on: forward or
    out-of-range references, arity mismatch with the cell kind,
    duplicate gate names, placements outside the unit square, or an
    empty output list. *)

val name : t -> string

val num_inputs : t -> int

val num_gates : t -> int

val gate : t -> int -> gate
(** Gates are returned in topological order of their ids. *)

val gates : t -> gate array

val outputs : t -> signal array

val fanout_count : t -> int -> int
(** [fanout_count nl g] is the number of gate inputs plus primary
    outputs driven by gate [g]'s output. Every gate drives at least one
    sink by construction. *)

val encode_signal : t -> signal -> int
(** Injective encoding of signals into [0 .. num_inputs + num_gates - 1]:
    primary inputs first, then gate outputs. *)

val decode_signal : t -> int -> signal

val signal_name : t -> signal -> string

val depth : t -> int
(** Longest path length counted in gates. 0 for a gateless netlist. *)

val stats : t -> string
(** One-line human-readable summary. *)
