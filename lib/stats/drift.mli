(** Sequential drift detection on prediction residuals.

    A two-sided CUSUM on standardized residuals catches persistent mean
    shifts; a windowed sample-variance ratio catches spread blow-ups
    that leave the mean intact. The detector is calibrated against a
    fixed reference [(mean, sigma)] supplied at creation time (callers
    typically estimate it from the first few dozen healthy dies) and
    reports a typed state after every observation.

    The detector is a diagnostic, never a gatekeeper: pathological
    input (non-finite residuals) is counted and, past a configurable
    run length, quarantines the {e detector} — the caller's serving
    path must keep running regardless of what happens here. *)

type state = Healthy | Warning | Drifted

val state_to_string : state -> string

type config = {
  slack : float;
      (** CUSUM slack [k], in reference sigmas: deviations below this
          are absorbed. Default [0.5] (tuned for ~1-sigma shifts). *)
  warn : float;
      (** CUSUM statistic (in sigmas) at which the state becomes
          [Warning]. Default [4.0]. *)
  drift : float;
      (** CUSUM statistic at which the state becomes [Drifted]; the
          boundary is inclusive ([>=]). Default [8.0]. *)
  window : int;
      (** Residual-variance window length. Default [64]. *)
  var_ratio : float;
      (** Windowed sample variance over reference variance at which the
          state becomes [Drifted] even without a mean shift.
          Default [6.0]. *)
  max_consecutive_bad : int;
      (** Consecutive non-finite residuals after which the detector
          quarantines itself. Default [8]. *)
}

val default_config : config

val check_config : config -> unit
(** Raises [Invalid_argument] on an invalid threshold set ([drift <= 0],
    [warn > drift], [window < 2], [var_ratio <= 1], non-finite values,
    [max_consecutive_bad < 1]). Exposed so callers that build a detector
    {e later} (e.g. after a calibration phase) can fail fast at
    configuration time instead of mid-stream. *)

(** A detector is plain data: its reference, its CUSUM accumulators,
    its residual window and its latch. The record is open so a
    checkpoint codec ([Serve.Monitor]'s) can encode a live detector and
    build one back; a rebuilt detector continues bit-exactly where the
    encoded one stood. Only {!observe} should move it otherwise. *)
type t = {
  config : config;
  mean0 : float;
  sigma0 : float;  (** floored, [> 0] *)
  mutable s_hi : float;
  mutable s_lo : float;
  mutable n : int;  (** finite residuals consumed *)
  mutable bad : int;  (** non-finite residuals rejected (cumulative) *)
  mutable consecutive_bad : int;
  mutable quarantine : bool;
  win : float array;  (** residual ring, length [config.window] *)
  mutable win_n : int;  (** total pushed into the ring *)
  mutable state : state;
}

(* lint: allow-next unused-export: [Grouped] runs it; test_drift drives it *)
val create : ?config:config -> mean:float -> sigma:float -> unit -> t
(** Reference distribution of healthy residuals. [sigma] must be
    finite and [>= 0]; a zero [sigma] (degenerate reference) is floored
    internally so that any departure from [mean] registers immediately.
    Raises [Invalid_argument] on non-finite or negative inputs, or on a
    non-positive [window], [drift <= 0] or [warn > drift]. *)

(* lint: allow-next unused-export: [Grouped] runs it; test_drift drives it *)
val observe : t -> float -> state
(** Feed one residual and return the updated state. [Drifted] latches:
    once reached it persists for the detector's life ({!Grouped.restart}
    replaces it). Non-finite input never
    raises — it is counted ([bad]), leaves the statistics
    untouched, and after [max_consecutive_bad] in a row the detector
    quarantines itself ([quarantine] becomes true and the state
    freezes). *)

(* lint: allow-next unused-export: [Grouped] runs it; test_drift drives it *)
val cusum : t -> float
(** Current two-sided CUSUM statistic, max of the high and low sides,
    in reference sigmas. *)

(* lint: allow-next unused-export: [Grouped] runs it; test_drift drives it *)
val variance_ratio : t -> float option
(** Windowed sample variance over reference variance; [None] until the
    window has filled. *)

(** Per-group drift detection for streams partitioned by wafer/lot.

    Process variation is strongly correlated within a wafer and a lot,
    so a residual reference calibrated across wafers is wider than any
    single wafer's healthy spread — a per-wafer shift can hide inside
    it. [Grouped] keys calibration and detection by an opaque group id:
    each group gets its own reference (estimated from its own first
    residuals) and its own CUSUM/variance detector, created lazily and
    bounded by a table cap. A stream that never names a group lands in
    the default group [""] and behaves exactly like a single flat
    detector with the same calibration length. *)
module Grouped : sig
  (** One group: its calibration buffer, then its detector. Like the
      detector, the table is open for the checkpoint codec. *)
  type entry = {
    calib : float array;  (** length [calibrate] *)
    mutable calib_n : int;  (** finite residuals buffered so far *)
    mutable det : t option;  (** [None] while still calibrating *)
  }

  type nonrec t = {
    cfg : config;
    calibrate : int;
    max_groups : int;
    groups : (string, entry) Hashtbl.t;
        (** keyed by group id; always holds the default group [""] *)
    mutable overflow : int;
  }

  val create :
    ?config:config -> ?calibrate:int -> ?max_groups:int -> unit -> t
  (** One detector configuration shared by every group. [calibrate]
      (default [32], [>= 2]) residuals per group build that group's
      reference; [max_groups] (default [64], [>= 1]) bounds the table —
      unknown groups past the cap are folded into the default group and
      counted in {!overflowed}. Raises [Invalid_argument] on a bad
      config (via {!check_config}) or bad bounds. *)

  val observe : t -> group:string -> float -> state
  (** Feed one residual to [group]'s detector, creating it (calibrating
      first) on first sight. Returns that group's post-observation
      state; [Healthy] while the group is still calibrating. *)

  val group_count : t -> int
  (** Groups currently tracked (the default group counts). *)

  val overflowed : t -> int
  (** Observations from unknown groups folded into the default group
      because the table was full (cumulative, survives {!restart}). *)

  val calibrating : t -> bool
  (** No group has finished calibration yet — no detection capability
      anywhere. Matches the flat detector's "calibrating" notion when
      only the default group exists. *)

  val state : t -> state
  (** Worst state across groups ([Drifted] > [Warning] > [Healthy]). *)

  val cusum : t -> float
  (** Largest CUSUM statistic across calibrated groups; [0.0] if none. *)

  val variance_ratio : t -> float option
  (** Largest windowed variance ratio across groups whose window has
      filled; [None] if no group's has. *)

  val quarantined : t -> bool
  (** Some group's detector has quarantined itself. *)

  val drifted_active : t -> bool
  (** Some group is [Drifted] and {e not} quarantined — the re-selection
      trigger: a quarantined group's latched state is untrusted, but it
      must not mask a genuine drift in another group. *)

  val restart : t -> unit
  (** Drop every group (including calibration progress) back to a fresh
      table with only the default group; keeps the cumulative
      {!overflowed} counter. Use after an artifact swap. *)
end
