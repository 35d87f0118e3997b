(** The two reconnection protocols, run against a base-node engine.

    {!reprocess} is Gray et al.'s two-tier replication: every tentative
    transaction is shipped to the base (code and arguments), transformed
    into a base transaction and re-executed, paying query processing,
    concurrency control and a log force per transaction.

    {!merge} is the paper's protocol (Section 2.1): ship read/write sets
    and the tentative precedence graph, build [G(H_m, H_b)], compute
    {b B} if cyclic, rewrite the tentative history on the mobile, prune
    it, forward only the final values of the repaired history's writes
    (one transaction, one force), and re-execute only the backed-out
    transactions. Those last two steps are {!commit}, shared by the
    atomic merge and the crash-safe session protocol.

    Both return what they add to the {e logical} base history — the
    serial order the merged transactions are equivalent to — which a
    {!Window} maintains across successive mergers (Section 2.2, Strategy
    2): reprocessing the transactions it appended, a merge a {!splice}
    of the history it ran against. A merge reads that history as a
    {!history}: indexed for conflict queries, so it builds only its
    session's part of [G(H_m, H_b)], and commits the splice in
    O(tail + positions re-laid). *)

open Repro_txn
open Repro_history
open Repro_precedence
open Repro_rewrite

(** Acceptance criterion for a re-executed tentative transaction: given
    the tentative execution and the base re-execution, accept or reject
    (the paper leaves "unacceptable differences" application-defined). *)
type acceptance = original:Interp.record -> replayed:Interp.record -> bool

val accept_always : acceptance

(** Accept iff the re-execution wrote the same items (same guard
    decisions), regardless of values. *)
val accept_same_shape : acceptance

(** Accept iff every rewritten value differs from the tentative one by at
    most [tolerance]. *)
val accept_within : tolerance:int -> acceptance

(** One transaction of the logical base history: its program plus the
    execution record that stands for it (dynamic read/write sets). *)
type base_txn = { program : Program.t; record : Interp.record }

(** [replay s0 history] — the ground-truth oracle: a fold of
    {!Interp.apply} over the programs from [s0], never touching an engine. *)
val replay : State.t -> base_txn list -> State.t

(** A logical base history indexed for conflict queries
    ({!Repro_precedence.Precedence.Index}): what a merge is run against.
    A {!Window} keeps its history in one, adding each committed
    transaction once. *)
type history = base_txn Precedence.Index.t

(** [index_history l] — [l] indexed, for a caller that holds a list: each
    transaction's summary is computed once, here. *)
val index_history : base_txn list -> history

(** What a merge commits, as a splice of the history it ran against:
    positions before [first] keep their transactions, and the history
    from [first] on becomes the transactions there that [tail] does not
    move, in order, then [tail]. [tail] holds the saved tentatives, the
    base transactions they reach ([Moved] by position) and, last, the
    accepted re-executions. {!Precedence.Index.splice} commits it in
    O(tail + positions from [first] on). *)
type splice = { first : int; tail : base_txn Precedence.Index.placed list }

(** [merged_history h splice] — the whole merged history, [front @ tail]:
    [splice] expanded against [h], the history it was computed on, before
    anything changes [h]. The one function that builds the list; O(length
    h). *)
val merged_history : history -> splice -> base_txn list

type outcome =
  | Merged  (** saved by the rewrite; updates forwarded *)
  | Reexecuted  (** backed out, then re-executed successfully at the base *)
  | Rejected  (** backed out and re-execution failed acceptance *)

(** ["merged"], ["reexecuted"] or ["rejected"]. *)
val outcome_name : outcome -> string

type txn_report = { name : Names.t; outcome : outcome }

type merge_config = {
  theory : Semantics.theory;
  algorithm : Rewrite.algorithm;
  strategy : Backout.strategy;
  fix_mode : Rewrite.fix_mode;
  prefer_compensation : bool;
      (** prune by compensation when every suffix transaction has a
          derivable compensator, otherwise by undo + undo-repair *)
  acceptance : acceptance;
  capture_provenance : bool;
      (** thread [~capture:true] through {!Rewrite.run_execution} so the
          report's [rewrite.attempts] records every pair verdict — the
          input of {!Provenance.of_merge}. Off by default (zero hot-path
          cost). *)
}

val default_merge_config : merge_config

type merge_report = {
  bad : Names.Set.t;
  affected : Names.Set.t;
  saved : Names.Set.t;
  backed_out : Names.Set.t;
  txns : txn_report list;
  splice : splice;  (** the updated logical base history, as a splice of [base_history] *)
  rewrite : Rewrite.result;
  pruned_by_compensation : bool;
  cost : Cost.tally;
}

(** [merge ~config ~params ~base ~base_history ~origin ~tentative] merges
    [tentative] (executed from [origin] on the mobile) into the base,
    whose logical history since the common [origin] is [base_history].
    The base engine's state is updated (forwarded updates plus
    re-executions); [base_history] is not (a {!Window} splices the
    report's [splice] into it; {!merged_history} lists the result). The
    tentative history is executed once:
    the rewrite starts from the execution {!analyze_graph} made. *)
val merge :
  config:merge_config ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  base_history:history ->
  origin:State.t ->
  tentative:History.t ->
  merge_report

(** {2 Message-level decomposition of the merge exchange}

    The merge protocol is one logical exchange but four message
    boundaries; the fault-injection layer ({!Repro_fault.Session}) runs
    each phase at the endpoint that owns it, with an unreliable wire in
    between, and {!merge} composes them back into the original atomic
    protocol: {!analyze_graph}, {!rewrite_local}, then {!commit}. Each
    phase accumulates its share of the Section 7.1 cost into the [cost]
    tally it is given. *)

(** Base side, steps 1-2: build [G(H_m, H_b)] from the shipped read/write
    sets and compute the back-out set {b B}. *)
type graph_phase = {
  gp_tentative_exec : Repro_history.History.execution;
  gp_pg : Repro_precedence.Precedence.t;
  gp_bad : Names.Set.t;
}

(** Builds the session's part of the graph with
    {!Repro_precedence.Precedence.build} from the summaries of
    [tentative], executed from [origin], against the indexed
    [base_history], charges the §7.1 costs of the full graph's nodes and
    edges (counted, not materialised), and, when the graph is cyclic,
    computes {b B} with {!Backout.compute}, which builds the
    {!Repro_precedence.Precedence.cone} only when the session brings two
    or more tentative transactions. *)
val analyze_graph :
  strategy:Backout.strategy ->
  params:Cost.params ->
  cost:Cost.tally ->
  base_history:history ->
  origin:State.t ->
  tentative:History.t ->
  graph_phase

(** Mobile side, steps 3-4: rewrite the tentative history around {b B}
    and prune the backed-out suffix. *)
type rewrite_phase = {
  rp_rewrite : Rewrite.result;
  rp_pruned_state : State.t;  (** mobile state after pruning; forwarded values *)
  rp_pruned_by_compensation : bool;
  rp_backed_out : Names.Set.t;
}

(** [rewrite_local ~config ~params ~cost ~tentative_exec ~bad] rewrites
    from [tentative_exec], the tentative history's execution from the
    origin ({!Rewrite.run_execution}); it does not execute the history
    again. {!merge} and the session layer's in-doubt resolution pass the
    [gp_tentative_exec] that {!analyze_graph} made; the session's mobile
    side executes its own history once and passes that. *)
val rewrite_local :
  config:merge_config ->
  params:Cost.params ->
  cost:Cost.tally ->
  tentative_exec:History.execution ->
  bad:Names.Set.t ->
  rewrite_phase

(** Base side, step 5 planning (pure): merged serial order, the
    last-writer-filtered forwarded item set, and the backed-out programs
    to re-execute. [base_history] is the one [graph] was analysed
    against. The order is {!Repro_precedence.Precedence.merge_order}'s,
    as a splice: the base transactions no saved tentative reaches keep
    their order in front, and payloads are built for the tail alone.
    Each forwarded item's last writer is found by scanning the tail's
    write lists from the end. O(tail) beyond the merge order. *)
type plan = {
  pl_splice : splice;  (** without re-executions, which {!commit} appends *)
  pl_forwarded_items : Repro_txn.Item.Set.t;
  pl_backed_out_programs : Program.t list;
}

val plan_commit :
  graph:graph_phase ->
  rewrite:rewrite_phase ->
  base_history:history ->
  tentative:History.t ->
  plan

(** Base side, steps 5-6: [commit ~config ~params ~cost ~base
    ~base_history ~tentative graph rewrite] applies the merge plan
    ({!plan_commit}) to [base] and returns the merge's report. It
    forwards the final values of the last-writer-filtered items as one
    transaction, re-executes each backed-out program once (an accepted
    re-execution commits the very record the acceptance test judged,
    {!Repro_db.Engine.commit}), and charges their §7.1 costs to [cost],
    which becomes the report's tally. The forward runs in the
    [protocol.forward] span and the re-executions in
    [protocol.reexecute]; one [protocol.forwarded_items] sample is
    recorded. It is the only code that applies a plan: {!merge} calls
    it, and so do the session layer's base commit and its replays
    (a duplicate commit request, an in-doubt resolution). With [~durably:true] (the default, the atomic protocol)
    every transaction is forced and charged one [io_per_force];
    [~durably:false] leaves them in the volatile log tail and charges
    no I/O, for a caller that closes its own commit group with one
    force (the session protocol). *)
val commit :
  ?durably:bool ->
  config:merge_config ->
  params:Cost.params ->
  cost:Cost.tally ->
  base:Repro_db.Engine.t ->
  base_history:history ->
  tentative:History.t ->
  graph_phase ->
  rewrite_phase ->
  merge_report

(** Count a finished merge against the protocol's observability metrics
    (merge counter, per-outcome counters, cost distribution) — called by
    {!merge} itself and by the session layer once per completed session
    (a replayed commit is not counted again). *)
val record_merge_metrics : merge_report -> unit

type reprocess_report = {
  txns : txn_report list;
  appended : base_txn list;  (** transactions committed at the base *)
  cost : Cost.tally;
}

(** [reprocess ~acceptance ~params ~base ~origin ~tentative] re-executes
    every tentative transaction at the base, in order. *)
val reprocess :
  acceptance:acceptance ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  origin:State.t ->
  tentative:History.t ->
  reprocess_report
