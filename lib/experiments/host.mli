(** Host provenance for benchmark reports.

    Every BENCH_*.json is a performance claim made on some machine;
    readers comparing numbers across runs need to know how many cores
    the run actually had. A single-core host in particular makes every
    parallel-speedup figure a serial upper bound, so the caveat is
    recorded as a first-class boolean rather than buried in prose. *)

val cores : unit -> int
(** Cores the parallel pool would use ({!Par.Pool.available_cores}). *)

val fields : unit -> (string * Core.Report.json) list
(** [("cores_available", Int n); ("single_core_caveat", Bool (n = 1))]
    — {!Soak.write} splices them into every BENCH object. *)
