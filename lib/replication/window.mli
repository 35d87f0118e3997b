(** The base side of a resynchronization window (Section 2.2): the one set
    of reconnect handlers that {!Sync}, the merge service, scripted
    scenarios and experiment E8 all run. A window owns a base engine, the
    {e logical} history committed at it since it opened, and its handlers'
    costs and verdict counts; {!Protocol.replay} of {!history} from the
    window's origin is the ground truth for the engine's state.

    The history lives in a per-window conflict index
    ({!Repro_precedence.Precedence.Index}): each transaction is linked
    into it once, before the first merge that reads it, so a merge
    builds only its session's part of [G(H_m, H_b)]. *)

open Repro_txn
open Repro_history

type protocol = Merging of Protocol.merge_config | Reprocessing

(** A merge attempt under a runner: completed, or abandoned mid-session
    with the base untouched (not a Strategy-1 snapshot anomaly). *)
type merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string  (** abort reason *)

(** How a merge is carried out: without one, {!merge} calls
    {!Protocol.merge} (a perfect atomic exchange); {!Repro_fault.Session.sync_runner}
    runs a resumable session over an unreliable transport. [base_history]
    is the window's indexed history from the merge's [from] on; it must
    not change during the call, and the window commits the report's
    [splice] into it afterwards. *)
type merge_runner =
  config:Protocol.merge_config ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  base_history:Protocol.history ->
  origin:State.t ->
  tentative:History.t ->
  merge_attempt

type t

(** [create ?runner ~protocol ~params engine] opens a window at
    [engine]'s state. *)
val create :
  ?runner:merge_runner ->
  protocol:protocol ->
  params:Cost.params ->
  Repro_db.Engine.t ->
  t

val engine : t -> Repro_db.Engine.t
val length : t -> int

(** The logical history, oldest first; [~upto:n]: its first [n]. *)
val history : ?upto:int -> t -> Protocol.base_txn list

val cost : t -> Cost.tally

type counts = {
  merges : int;  (** reconnections handled by merging *)
  saved : int;  (** tentative transactions saved by merging *)
  reexecuted : int;  (** tentative transactions re-executed at the base *)
  rejected : int;  (** re-executions failing acceptance *)
  late_sessions : int;  (** histories begun in an earlier window *)
  late_txns : int;  (** tentative transactions in those sessions *)
  aborted_merges : int;  (** merges the runner abandoned *)
}

val counts : t -> counts

(** Execute a base transaction and append it. *)
val base_txn : t -> Program.t -> Interp.record

(** Re-execute a tentative history begun at [origin], appending the
    accepted transactions. *)
val reprocess : t -> origin:State.t -> History.t -> Protocol.reprocess_report

(** Merge a tentative history begun at [origin] against the history from
    position [from] on (default [0]; a Strategy-1 snapshot starts later),
    and commit the merged order into that suffix as a splice
    ({!Repro_precedence.Precedence.Index.splice}): the index re-lays only
    the positions from the first the merge moved, and adds the saved and
    re-executed transactions. The commit costs O(tail + positions
    re-laid), whatever the window's length. [None]: the runner aborted.
    @raise Invalid_argument on a [Reprocessing] window. *)
val merge : ?from:int -> t -> origin:State.t -> History.t -> Protocol.merge_report option

(** The reconnect rule: reprocess under [Reprocessing] or when [late]
    (counted as late), else merge, and reprocess if the merge aborts.
    Returns the transactions' verdicts. *)
val reconnect :
  ?from:int -> t -> late:bool -> origin:State.t -> History.t -> Protocol.txn_report list

(** Open the next window at the engine's state: the history restarts
    empty; costs and counts carry over. *)
val reset : t -> unit
