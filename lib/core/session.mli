(** One-call driver for a full merge session — the library's quickstart
    API.

    [merge_once] plays both roles of a reconnection: it executes the base
    history on a fresh base-node engine, executes the tentative history
    from the same origin (the mobile side), then runs the paper's protocol
    end to end — precedence graph, back-out, rewrite, prune, forward,
    re-execute — and returns the merged state together with everything
    observable along the way. [compare_protocols] additionally runs
    two-tier reprocessing on an identical setup and reports both cost
    tallies (the Section 7.1 comparison). *)

open Repro_txn
open Repro_history
open Repro_replication

type result = {
  precedence : Repro_precedence.Precedence.t;
      (** the graph [G(Hm, Hb)] of the two executions *)
  report : Protocol.merge_report;  (** everything the protocol decided *)
  base_history : Protocol.history;
      (** the base history the merge ran against, unchanged: with the
          report's splice, {!Protocol.merged_history} lists the merged
          history *)
  merged_state : State.t;  (** base state after the session *)
}

(** [merge_once ~s0 ~tentative ~base ()] runs one complete reconnection:
    both histories execute from [s0] (programs are checked for duplicate
    names), then the merge protocol reconciles them at the base.
    [config] defaults to {!Protocol.default_merge_config}, [params] to
    the Section 7.1 cost defaults. *)
val merge_once :
  ?config:Protocol.merge_config ->
  ?params:Cost.params ->
  s0:State.t ->
  tentative:Program.t list ->
  base:Program.t list ->
  unit ->
  result

(** Merging vs two-tier reprocessing of the same inputs. *)
type comparison = {
  merge_result : result;
  merge_cost : Cost.tally;
  reprocess_state : State.t;  (** base state after reprocessing instead *)
  reprocess_cost : Cost.tally;
  reprocess_txns : Protocol.txn_report list;
      (** per-transaction outcomes under reprocessing *)
}

(** [compare_protocols ~s0 ~tentative ~base ()] runs {!merge_once} and
    then two-tier reprocessing on an identical fresh setup, reporting
    both cost tallies — the paper's Section 7.1 comparison as one
    call. *)
val compare_protocols :
  ?config:Protocol.merge_config ->
  ?params:Cost.params ->
  s0:State.t ->
  tentative:Program.t list ->
  base:Program.t list ->
  unit ->
  comparison

(** Convenience: build a history from programs (checked for duplicate
    names). *)
val history : Program.t list -> History.t
