(** Crash-safe resumable merge sessions over an unreliable wire.

    The merge exchange of Section 2.1 is one logical protocol but — on a
    real link — a sequence of messages, any of which can be lost,
    duplicated or reordered, around nodes that can crash. This module
    runs the decomposed protocol ({!Repro_replication.Protocol}'s
    [analyze_graph] at the base, [rewrite_local] at the mobile, then
    [commit] at the base) as a sequence-numbered, idempotent message
    exchange over {!Net}, with acks, bounded retry with exponential
    backoff, and a session journal persisted through the base engine's
    WAL ({!Repro_db.Engine.journal}), so that:

    - a completed session applies its forwarded updates and
      re-executions {e exactly once}, no matter how many times the
      commit request is retransmitted or the base crashes and recovers;
    - an abandoned session leaves the base state untouched, and the
      caller falls back to reprocessing.

    The exactly-once mechanism: the base performs the whole commit —
    [Protocol.commit ~durably:false]'s forwarded updates and
    re-executions, then a journal marker
    ["applied <first_txid> <last_txid>"] — as one unforced WAL commit
    group closed by a single force. A crash before the force loses
    marker and effects together (the session restarts from scratch); a
    crash after keeps both, and any retransmitted commit request is
    answered by {e deterministic replay}: rewind the journaled txid
    range to the pre-commit state, re-run the same commit on a scratch
    engine, check it reconverges on the recovered base state, and
    return the rebuilt report. A session that gives up after a
    [Forward] was sent resolves the in-doubt commit the same way, once
    the journal shows the marker. See docs/FAULTS.md.

    Both endpoints run in {!Net.await}, the delivery loop shared with
    the multibase exchange, and the wire's crash points are consumed
    through {!Net.take_crash}: the session keeps only its handlers and
    its retry policy. *)

open Repro_txn
open Repro_history
module Protocol = Repro_replication.Protocol
module Cost = Repro_replication.Cost

(** The session's wire messages. [sid] identifies the session; [seq]
    numbers the tentative-history chunks (stop-and-wait). *)
type wire =
  | Hello of { sid : int; chunks : int }  (** open / resume a session *)
  | Hello_ack of { sid : int; next : int }  (** next chunk the base expects *)
  | Ship of { sid : int; seq : int; origin : State.t option; entries : History.entry list }
  | Ship_ack of { sid : int; seq : int }
  | Merge_req of { sid : int }  (** all chunks shipped: analyze, return B *)
  | Outcome of { sid : int; bad : Names.Set.t }
  | Forward of { sid : int; rewrite : Protocol.rewrite_phase }
      (** mobile's rewrite + pruned state: commit exactly once *)
  | Done of { sid : int; report : Protocol.merge_report }
  | Fin of { sid : int }  (** release the base's volatile session state *)
  | Nack of { sid : int }
      (** base has no state for this session (it crashed): restart from
          [Hello]; the journal guarantees restart is safe *)
  | Fatal of { sid : int }
      (** the base restarted but could not recover everything it had
          acknowledged as durable (storage corruption / fsync lies —
          see {!Repro_db.Wal.reload}): the session cannot safely
          continue and the mobile aborts cleanly *)

(** Short display label of a message (["Ship[2]"], ["Done"], ...) — pass
    as [Net.create ~describe:wire_label] so the wire's trace events name
    the protocol messages; {!sync_runner} does so for its sessions. *)
val wire_label : wire -> string

type config = {
  chunk : int;  (** tentative-history entries per [Ship] *)
  retry_timeout : float;  (** initial per-message ack timeout, positive *)
  backoff : float;  (** timeout multiplier per retry, positive *)
  max_retries : int;  (** per message, before the session aborts *)
  commit_retries : int;
      (** retry budget for [Forward] — higher, because giving up there
          is the in-doubt case and needs journal-peek resolution *)
  reboot_delay : float;  (** mobile crash-to-restart delay *)
  jitter : float;
      (** seeded multiplicative jitter on the backoff timeout, in
          [[0, 1]]: each retry waits
          [retry_timeout * backoff^attempt * (1 ± jitter)], drawn from a
          private deterministic stream ([?retry_seed]). [0.0] (the
          default) keeps the bare exponential schedule; above [1.0] a
          wait could be negative and run the clock backwards, so
          {!run_merge} refuses it *)
}

val default_config : config

type outcome =
  | Completed of Protocol.merge_report
  | Aborted of string  (** reason; the base state is untouched *)

type result = {
  outcome : outcome;
  retries : int;  (** retransmissions by the mobile *)
  messages : int;  (** messages the mobile submitted to the wire *)
  crashes : int;  (** node crashes injected during the session *)
  resumed : bool;  (** the session restarted from [Hello] at least once *)
  forced_resolution : bool;
      (** the commit outcome was resolved by peeking the journal after
          the retry budget ran out (in-doubt window) *)
  storage_failure : bool;
      (** a base crash-restart lost believed-durable log records
          ({!Repro_db.Wal.recovery}): the base refused to continue and
          the session aborted *)
  elapsed : float;  (** simulated session duration *)
}

(** [run_merge ~net ~session ~config ~params ~base ~base_history ~origin
    ~tentative ()] drives one merge session to completion or abort. Both
    endpoints are simulated in one event loop over [net]'s clock; crash
    points in [net]'s schedule fire during the run, each at most once
    per [net], so every session gets a fresh wire. On [Completed r],
    the base engine holds the merged state, [r] is equivalent to what a
    fault-free {!Protocol.merge} would return, and [r.cost]
    additionally charges retransmissions and recovery recomputation.

    @raise Invalid_argument if [session.jitter] is outside [[0, 1]], or
    if [session.retry_timeout] or [session.backoff] is not positive (NaN
    included in both cases): such a wait could set the clock back. *)
val run_merge :
  ?sid:int ->
  ?retry_seed:int ->
  net:wire Net.t ->
  session:config ->
  config:Protocol.merge_config ->
  params:Cost.params ->
  base:Repro_db.Engine.t ->
  base_history:Protocol.history ->
  origin:State.t ->
  tentative:History.t ->
  unit ->
  result

(** Commit markers (["applied <first_txid> <last_txid>"] journal notes,
    see docs/FAULTS.md) journaled under session [sid]: exactly one after
    a completed session, none after an aborted one. *)
val applied_markers : Repro_db.Engine.t -> sid:int -> int

(** Aggregate counters across the sessions a {!sync_runner} ran. *)
type totals = {
  mutable sessions : int;
  mutable completed : int;
  mutable aborted : int;
  mutable resumed : int;
  mutable retries : int;
  mutable crashes : int;
  mutable forced : int;
}

(** [sync_runner ?retry_seed ~schedule ~session ~net_seed] is a
    {!Repro_replication.Sync.merge_runner} that carries every merge of a
    multi-node simulation over its own freshly seeded faulty transport
    (session [i] uses seed [net_seed + 7919 * i]) and its own retry-jitter
    stream (seed [retry_seed + 31 * i], where [retry_seed] defaults to
    [net_seed] so runs are byte-stable from one seed), plus the totals it
    fills in. *)
val sync_runner :
  ?retry_seed:int ->
  schedule:Net.schedule ->
  session:config ->
  net_seed:int ->
  unit ->
  Repro_replication.Sync.merge_runner * totals

val pp_totals : Format.formatter -> totals -> unit
