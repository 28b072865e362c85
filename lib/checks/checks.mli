(** Opt-in runtime contract checking.

    Enabled by [PATHSEL_CHECKS=1] in the environment (or [--checks] on
    the CLI, or {!set_enabled}). When on, the numeric core ({!Linalg.Mat},
    {!Core.Predictor}) re-validates dimension contracts at every entry
    point and scans kernel outputs for NaNs that were {e introduced} by
    the operation — i.e. the inputs were NaN-free but the output is not
    (0 * inf, inf - inf, a stray uninitialised read). NaNs already
    present in the inputs are the fault-tolerance layer's business
    ({!Core.Robust} screens them) and are deliberately not flagged.

    The checks are off by default and cost nothing beyond one [bool]
    read per wrapped call. *)

exception Contract_violation of string
(** Raised by every failed contract check. Distinct from
    [Invalid_argument] so a violation is unambiguously a checks-layer
    report, not a normal API misuse error. *)

val on : unit -> bool
(** True when contract checking is enabled. *)

val set_enabled : bool -> unit
(** Override the environment setting for this process. *)

val failf : ('a, unit, string, 'b) format4 -> 'a
(** [failf fmt ...] raises {!Contract_violation} with a formatted
    message. *)

val require : bool -> string -> unit
(** [require cond msg] raises {!Contract_violation} [msg] when [cond]
    is false. Call sites should already be guarded by {!on}. *)

val find_nan : float array -> int option
(** Index of the first NaN, scanning left to right. *)

val nan_introduced : what:string -> inputs:float array list -> float array -> unit
(** [nan_introduced ~what ~inputs out] raises iff [out] contains a NaN
    and no array in [inputs] does — the NaN-propagation detector used by
    the kernel wrappers. *)
