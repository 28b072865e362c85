(** Machine-readable measurement-plan reports.

    The output of the selection algorithms is ultimately a work order
    for the DFT/test team: which paths to instrument with measurement
    flip-flops and which segments to expose through custom test
    structures. This module renders that plan as JSON (emitted without
    external dependencies) so downstream insertion flows can consume
    it. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Floats of float array
      (** An array of numbers, printed like a [List] of [Float]s (so
          non-finite entries are [null]) without boxing each one: the
          cheap form for large numeric rows. Parsers never produce it. *)
  | String of string
  | List of json list
  | Obj of (string * json) list

(* lint: allow-next unused-export: the writers run it; test_report checks the JSON *)
val to_string : json -> string
(** Compact rendering with correct escaping. *)

val selection_report :
  pool:Timing.Paths.t ->
  t_cons:float ->
  eps:float ->
  Select.t ->
  json
(** Plan for a path-only selection: per representative path, its index,
    gate names, nominal delay and sigma; plus the guard-band fractions
    for the predicted paths. *)

val hybrid_report :
  pool:Timing.Paths.t ->
  t_cons:float ->
  eps:float ->
  Hybrid.t ->
  json
(** Plan for a hybrid selection: measured paths and, per selected
    segment, the gate chain a custom test structure must replicate. *)

val write_file : string -> json -> unit
