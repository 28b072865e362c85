(** A Liberty (.lib) reader for the subset needed by NLDM delay
    calculation.

    Supported syntax: nested groups [name (args) { ... }], simple
    attributes [key : value ;], complex attributes [key ("...", ...);],
    quoted strings, [/* ... */] and [//]/[#] comments, and [\]-escaped
    line continuations inside values. This covers the structure of real
    standard-cell libraries; constructs outside the subset are kept in
    the generic tree untouched, so callers can extract what they need.

    {!Library} distills the tree into the NLDM view: per cell, per
    output pin, the [cell_rise]/[cell_fall] delay tables and
    [rise_transition]/[fall_transition] output-slew tables over
    (input slew) x (output load), plus input pin capacitances.

    Strings in, strings out: [Core.Errors.parse_liberty_file] is the
    file entry point (it also builds the {!Library} view). *)

exception Parse_error of int * string
(** [(line, message)] *)

(** Generic Liberty syntax tree. *)
type value =
  | Number of float
  | Word of string       (** unquoted identifier-ish value *)
  | Quoted of string
  | Tuple of value list  (** complex attribute arguments *)

type group = {
  gname : string;
  args : value list;
  attrs : (string * value) list;  (** in file order, duplicates kept *)
  subgroups : group list;
}

val parse : string -> group
(** Parse a full [.lib] text; the result is the top-level [library]
    group. *)

module Table : sig
  type t = {
    index1 : float array;  (** input slew axis, ns *)
    index2 : float array;  (** output load axis, pF (singleton axes ok) *)
    values : float array array;  (** values.(i).(j), ns *)
  }

  (* lint: allow-next unused-export: Library runs it; test_liberty pins it *)
  val lookup : t -> slew:float -> load:float -> float
  (** Bilinear interpolation, clamped at the table edges. *)
end

module Library : sig
  type timing = {
    delay_rise : Table.t option;
    delay_fall : Table.t option;
    slew_rise : Table.t option;
    slew_fall : Table.t option;
  }

  type cell = {
    cell_name : string;
    area : float option;
    input_caps : (string * float) list;  (** pin name, pF *)
    timings : timing list;               (** one per timing() group *)
  }

  type t = {
    lib_name : string;
    cells : cell list;
  }

  val of_group : group -> t
  (** Raises [Failure] when the group is not a [library]. *)

  val find_cell : t -> string -> cell option
  (** Case-insensitive. *)

  val worst_delay : cell -> slew:float -> load:float -> float
  (** Max over the cell's timing arcs and rise/fall of the delay
    tables; 0 when the cell has none. *)

  val worst_output_slew : cell -> slew:float -> load:float -> float

  val average_input_cap : cell -> float
  (** 0 when no input pin declares a capacitance. *)
end

val builtin : string
(** An embedded 90nm-flavoured library covering this repository's
    twelve cells; used as the default NLDM source and as parser test
    data. *)
