(** E15 — Domain-pool scaling: kernel and end-to-end pipeline wall-clock
    at 1/2/4/N domains, with bit-or-exact equivalence columns.

    Two claims are measured:

    - {b throughput}: the row-band parallel kernels ([Mat.mul],
      [mul_nt], [mul_tn], [gram]), Monte Carlo sampling, and the whole
      selection pipeline speed up with the pool size (on multicore
      hardware; on a single-core host the scaling rows are reported but
      the speedup gate is skipped);
    - {b determinism}: every output is bit-identical at every domain
      count — parallelism never changes an answer.

    [run ~smoke:true] is the [make perf-smoke] CI gate: a scaled-down
    sweep whose verdict is [false] when equivalence breaks, or when the
    4-domain matmul speedup falls below 2x on a machine that actually
    has >= 2 cores. *)

val run : ?oc:out_channel -> ?out:string -> ?smoke:bool -> Profile.t -> bool
(** Runs the sweep, prints the table to [oc] (default [stdout]), writes
    the JSON summary to [out] when given, and returns the gate's
    verdict. Restores the pool size that was configured before the
    call. *)
