(** Structural (gate-level) Verilog netlist reader and writer.

    Supported subset — what synthesis tools emit for flattened
    gate-level netlists with scalar nets:
    {v
      module top (a, b, z);
        input a, b;
        output z;
        wire w1;
        NAND2 u1 (.Z(w1), .A(a), .B(b));  // named connections
        not u2 (z, w1);                   // Verilog primitive, output first
        DFF r1 (.Q(q), .D(w1));           // cut for static timing
      endmodule
    v}

    Cell instances resolve through {!Cell.of_name}; Verilog gate
    primitives ([and or nand nor xor xnor not buf]) are accepted with
    any arity (wide ones are decomposed into 2-input trees, like
    {!Bench_io}). [DFF] instances are cut the standard way: Q becomes a
    pseudo primary input, D a pseudo primary output. Buses, behavioural
    constructs, parameters, and multiple modules are out of scope and
    rejected with a {!Parse_error}.

    Strings in, strings out: [Core.Errors.parse_verilog_file] is the
    file entry point. *)

exception Parse_error of int * string

val parse : name:string -> string -> Netlist.t
(** [name] is used only when the module header cannot provide one. *)

val print : Netlist.t -> string
(** Render as a structural Verilog module (placement is dropped). *)
