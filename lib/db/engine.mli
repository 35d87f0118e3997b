(** A small single-node transactional engine.

    Both node kinds of the two-tier simulator run one: the base node's
    engine holds master data; each mobile node's engine holds its
    tentative versions. Transactions execute serially (histories in the
    paper's model are serial), are logged through {!Wal} ahead of applying
    writes, and can be undone from their before-images — the physical
    machinery behind Section 6.2's undo approach and step 6's
    re-execution.

    [execute] forces the log once per transaction; [execute_batch] and
    [apply_updates] force once for the whole group — the paper's point
    that "forwarding the updates of SAV can be done within one
    transaction. So all the updates need be forced to durable logs only
    once." *)

open Repro_txn

type t

(** [create ?device s0] — a fresh engine over initial state [s0]. With
    [?device] the WAL persists through that (fault-injecting) disk
    ({!Wal.attach}) in format v3: every force writes checksummed frames
    and syncs, and {!crash_restart} recovers through
    corruption-detecting {!Wal.reload}. *)
val create : ?device:Block.t -> State.t -> t

(** Current committed state. *)
val state : t -> State.t

(** The attached storage device, if any. *)
val device : t -> Block.t option

(** [execute t ?fix program] — run, log, commit, force. With
    [~durably:false] the force is skipped: the commit record stays in the
    volatile log tail and a crash ({!recover}) loses the transaction —
    used by the crash tests. *)
val execute : ?fix:Fix.t -> ?durably:bool -> t -> Program.t -> Interp.record

(** [commit ?durably t record] — log, apply and commit a [record] the
    caller already computed with {!Interp.run} on [state t]: the same
    WAL entries and state as {!execute} of [record]'s program, without
    running it a second time. [execute] is [Interp.run] on [state t]
    followed by [commit]. [~durably] is as for {!execute}.
    @raise Invalid_argument unless [record.before] is physically
    [state t] (an O(1) check): a record computed on any other state,
    even an equal one, is refused. *)
val commit : ?durably:bool -> t -> Interp.record -> unit

(** [execute_batch t entries] — run and commit each entry, forcing the log
    once at the end. With [~force:false] the final force is skipped too:
    the whole batch stays in the volatile tail (torn-batch crash tests,
    and the session protocol's atomic commit groups). *)
val execute_batch : ?force:bool -> t -> Repro_history.History.entry list -> Interp.record list

(** [apply_updates t values items] — overwrite [items] with their values
    in [values] as one logged transaction (the protocol's forwarded
    updates). Each item costs one lookup in [values] and one walk of the
    engine's state, which reads the before-image and writes the new
    value together ({!State.exchange}). [~durably:false] skips the force,
    leaving the transaction in the volatile tail (used by the session
    protocol's atomic commit). *)
val apply_updates : ?durably:bool -> t -> State.t -> Item.Set.t -> unit

(** [undo t record] — restore the physical before-images of a previously
    executed transaction (logged as a new transaction). *)
val undo : t -> Interp.record -> unit

(** [checkpoint t] writes a checkpoint record and forces. *)
val checkpoint : t -> unit

(** [recover t] — the state a crash-restart would rebuild: last durable
    checkpoint replayed forward with the after-images of transactions
    whose [Commit] record is durable. *)
val recover : t -> State.t

(** [crash_restart t] simulates a node crash followed by restart, in
    place: the volatile log tail is lost ({!Wal.crash}), the durable log
    is re-read through the attached device's fault model ({!Wal.reload})
    and verified record by record, and the state is rebuilt from the
    recovered prefix. Everything unforced — including a partially
    appended commit group — vanishes atomically. The returned
    {!Wal.recovery} tells the caller whether believed-durable data was
    lost ([lost_durable > 0]) — storage the node must no longer trust.
    Without a device the verdict is trivially [Clean]. The session index
    ({!first_session_note}) is rebuilt from the recovered prefix. *)
val crash_restart : t -> Wal.recovery

(** {2 Session journal}

    The resumable merge-session protocol ({!Repro_fault}) journals its
    progress as {!Wal.Session} records. The commit marker is appended
    {e inside} the session's commit group, before the group's single
    force: a crash either loses the marker and every effect (the session
    restarts from scratch) or keeps both (the session is recognized as
    applied and never re-applied).

    The engine indexes, per session id, the WAL position and note of
    that session's first record, so the marker check is a hash lookup
    rather than a scan of the log. The index lives in memory only: it
    is kept by {!journal} and rebuilt from the surfaced log by
    {!crash_restart} and {!restart}. *)

(** [journal t ~session note] appends a session record. No force — call
    {!force} (or let the surrounding commit group force) to make it
    durable. *)
val journal : t -> session:int -> string -> unit

(** [first_session_note t ~session] — the note of [session]'s first
    durable record: the first [(session, note)] pair of
    {!session_journal}, without scanning the log. [None] until that
    record is covered by a force. *)
val first_session_note : t -> session:int -> string option

(** [force t] forces the log ({!Wal.force}). *)
val force : t -> unit

(** {2 Group commit}

    Delegates to {!Wal}'s coalescing layer: while a group is open,
    forces on this engine are deferred, and the outermost {!end_group}
    performs one combined force (one device write + one sync under WAL
    v3) covering them all. The single shared barrier keeps the coalesced
    group atomic on disk. Used by the session commit group, the
    service's per-window fold-back, and the multibase journal regions. *)

val begin_group : t -> unit
val end_group : t -> unit

(** [with_group t f] runs [f] inside a group; on exception the group is
    abandoned without forcing ({!Wal.with_group}). *)
val with_group : t -> (unit -> 'a) -> 'a

val in_group : t -> bool

(** Durable session records, oldest first. *)
val session_journal : t -> (int * string) list

(** [rewind_txns t ~first ~last] — the state with the writes of durable
    transactions [first..last] unapplied (before-images restored in
    reverse log order). Used by session recovery to reconstruct the
    pre-commit state after a crash that followed the commit force. *)
val rewind_txns : t -> first:int -> last:int -> State.t

(** Next transaction id the engine will allocate (session recovery
    records the id range of a commit group). *)
val next_txid : t -> int

(** [persist t ~path] writes the durable log to disk ({!Wal.save}). *)
val persist : t -> path:string -> unit

(** [restart ~path] rebuilds an engine from a persisted log: verifies
    and replays it like {!recover}, checkpoints the result, and
    continues transaction identifiers past the highest seen. The
    {!Wal.verdict} reports any damage the verification pass truncated
    away; a caller that requires an intact log should insist on
    [Clean].
    @return [Error] only when the file is not a recognizable log. *)
val restart : path:string -> (t * Wal.verdict, string) Stdlib.result

val log : t -> Wal.t
val transactions_committed : t -> int
