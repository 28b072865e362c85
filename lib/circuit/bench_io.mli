(** ISCAS'89 [.bench] netlist format.

    Supported syntax:
    {v
      # comment
      INPUT(a)
      OUTPUT(z)
      n1 = NAND(a, b)
      n2 = DFF(n1)
    v}
    [DFF] cells are cut for static timing the usual way: the D pin
    becomes a pseudo primary output and the Q pin a pseudo primary
    input, so all parsed paths are combinational.

    The format has no placement; {!parse} synthesizes a deterministic
    placement by the same fanin-averaging rule the generator uses.

    Strings in, strings out: [Core.Errors.parse_bench_file] is the file
    entry point, and tags a {!Parse_error} with the path. *)

exception Parse_error of int * string
(** [(line, message)]. *)

val parse : name:string -> string -> Netlist.t
(** Parse from the string contents of a [.bench] file. *)

val parse_lenient : name:string -> string -> Netlist.t * string list
(** Skip-and-warn mode for dirty inputs: unparseable lines, unsupported
    cell functions, and gates (transitively) depending on undefined
    signals are skipped instead of failing; dropped outputs are
    reported. Returns the surviving netlist plus one warning per
    skipped construct. Still raises {!Parse_error} when nothing usable
    remains or on a combinational cycle. *)

val print : Netlist.t -> string
(** Render a netlist back to [.bench] text (placement is not
    representable and is dropped; multi-input cells are emitted with
    their generic ISCAS spelling). *)
