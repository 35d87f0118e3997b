(** Multi-node two-tier replication simulator (Section 2.2 and Figure 2).

    One always-connected base node runs base transactions; [n_mobiles]
    mobile nodes run tentative transactions while disconnected and
    reconnect at random times. Reconnection runs either the paper's
    merging protocol or two-tier reprocessing, through the {!Window}
    handlers the merge service shares.

    Isolation of tentative histories follows the paper's two strategies:

    - {e Strategy 1}: each new tentative history starts from the base
      state at its start time. Before merging, the simulator checks that
      the base sub-history recorded since that snapshot still replays to
      the snapshot state; an earlier merger that serialized a transaction
      {e before} the snapshot position breaks this (the paper's anomaly),
      the merge is abandoned and the history falls back to reprocessing.
      The anomaly count is experiment E2's headline number.

    - {e Strategy 2}: every tentative history starts from the state at
      the beginning of the current resynchronization window. Histories
      begun in an expired window are not merged but reprocessed ("connects
      too late"). Merging is always possible; the anomaly count is zero by
      construction.

    At every window boundary the simulator replays the window's logical
    history from the window origin ({!Protocol.replay}) and compares with
    the base engine's state — the ground-truth serializability check. *)

open Repro_txn

type isolation = Strategy1 | Strategy2

type protocol = Window.protocol = Merging of Protocol.merge_config | Reprocessing

type merge_attempt = Window.merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string  (** abort reason *)

type merge_runner = Window.merge_runner

type workload = Trace.workload = {
  initial : State.t;
  make_mobile_txn : Repro_workload.Rng.t -> name:string -> Program.t;
  make_base_txn : Repro_workload.Rng.t -> name:string -> Program.t;
}

type config = {
  n_mobiles : int;
  duration : float;
  window : float;  (** resynchronization window length *)
  mean_connect_gap : float;  (** mean time between a mobile's connections *)
  connect_alpha : float option;
      (** [None]: exponential connect gaps (the historical default);
          [Some alpha]: Pareto-tailed disconnection lengths with the same
          mean and tail index [alpha]
          ({!Repro_workload.Gen.power_law_disconnect}) *)
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  protocol : protocol;
  isolation : isolation;
  params : Cost.params;
  seed : int;
  merge_runner : merge_runner option;  (** [None]: direct atomic merge *)
}

val default_config : config

(** The {!Trace.params} that {!run} derives from a config — exposed so
    other consumers (the concurrent merge service, tests) can generate
    the identical event stream. *)
val trace_params : config -> Trace.params

type stats = {
  base_txns : int;
  tentative_txns : int;
  merges : int;  (** reconnections handled by merging *)
  saved : int;  (** tentative transactions saved by merging *)
  reexecuted : int;  (** tentative transactions re-executed at the base *)
  rejected : int;  (** re-executions failing acceptance *)
  late_sessions : int;  (** Strategy 2: histories too old to merge *)
  late_txns : int;  (** tentative transactions in those late sessions *)
  anomalies : int;  (** Strategy 1: snapshot invalidated by an earlier merge *)
  aborted_merges : int;
      (** merges the runner abandoned, base unchanged; each reprocessed *)
  windows_checked : int;
  serializability_violations : int;
      (** windows whose logical history does not replay to the base state *)
  cost : Cost.tally;
  final_base : State.t;
}

val run : config -> workload -> stats

(** [run_trace config workload trace] — the simulator proper, over a
    pre-generated event stream. [run config workload] is exactly
    [run_trace config workload (Trace.generate (trace_params config)
    workload)]. Scheduling fields of [config] ([duration], gap means,
    [seed], …) are ignored here — the trace already fixes the events. *)
val run_trace : config -> workload -> Trace.t -> stats

val pp_stats : Format.formatter -> stats -> unit
