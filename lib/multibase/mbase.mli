(** A base as a replica: WAL-backed engine, tentative layer, and the
    epidemic metadata for decentralized commitment.

    Each base keeps the paper's two-layer history — a {e stable prefix}
    (committed, identical at every base) and a {e tentative layer}
    (this base's current merge order over the not-yet-committed
    transactions) — plus Golding/TSAE-style anti-entropy bookkeeping:

    - [have]: per-origin contiguous sequence prefix held (what to pull);
    - [vv]: per-origin covered-through timestamp (what the base can
      vouch for);
    - [matrix]: the believed [vv] of every base, merged by gossip.

    Commitment is decided without consensus: everything at or below
    [gvt] — the minimum over all matrix entries — is held everywhere
    and can never be preceded by a new transaction, so every base can
    independently move it to the stable prefix in the global
    [(ts, origin, seq)] order ({!Gtxn.compare_order}) and decide
    accept/reject by the same deterministic re-execution. Stable
    prefixes therefore nest across bases and no base ever un-commits.

    Durability discipline: digests advertise only the {e durable} clock
    (highest timestamp journaled and forced), so a crash never regresses
    the base below anything a peer was told; restart rebuilds all
    replication state from the WAL session journal ({!restore}). *)

open Repro_txn
module P = Repro_replication.Protocol
module Cost = Repro_replication.Cost
module Engine = Repro_db.Engine
module Wal = Repro_db.Wal

(** The cluster-wide transaction store: an in-memory registry mapping
    {!Gtxn.id} to the full transaction. Programs are closures, so they
    travel out-of-band of the durable journal; the registry stands for
    the program catalog a deployment would persist separately (the
    journal persists ids, timestamps and decisions — enough to rebuild
    every base's replication state against the registry). *)
type store = { register : Gtxn.t -> unit; lookup : Gtxn.id -> Gtxn.t }

type config = {
  merge : P.merge_config;
      (** semantic-merge configuration for integrating shipped suffixes;
          its acceptance criterion is forced to [accept_always] during
          integration — aborts are decided only at commitment *)
  commit_acceptance : P.acceptance;
      (** the global commit rule: canonical re-execution vs the origin
          record. Must be a pure function of the two records so every
          base decides identically. *)
  params : Cost.params;
}

(** [merge = Protocol.default_merge_config],
    [commit_acceptance = accept_same_shape]. *)
val default_config : config

type t

(** [create ~id ~n ~s0 ~config ~store ()] — base [id] of [n], starting
    from state [s0] with a fresh WAL-backed engine. *)
val create :
  id:int -> n:int -> s0:State.t -> config:config -> store:store -> unit -> t

val id : t -> int
val engine : t -> Engine.t

(** Stable prefix in commit order; [true] = committed, [false] =
    rejected by the commit acceptance rule (clean global abort). The
    base keeps the prefix newest first, so a commit appends in
    O(batch) and this call reverses it: O(stable). *)
val stable : t -> (Gtxn.t * bool) list

(** [List.length (stable t)], kept as a running count: O(1). *)
val stable_len : t -> int
val stable_state : t -> State.t
val tentative_count : t -> int

(** The engine's applied state (stable prefix + tentative layer). *)
val applied : t -> State.t

(** The tentative layer as [Protocol.base_txn]s — the [base_history] a
    mobile merge session against this base must use, with the base's
    current stable state as the session's origin. *)
val tentative_view : t -> P.base_txn list

(** Execute a base-local transaction: applied, wrapped as a {!Gtxn.t}
    with a fresh (seq, ts), journaled and forced. *)
val submit : t -> Program.t -> Gtxn.t

(** [integrate t txns] — receive a shipped suffix from a peer: exact
    duplicates are dropped, contiguous extensions are semantically
    merged into the tentative layer ({!P.merge} with [accept_always]),
    journaled and forced, and [have]/[vv] advance. Returns the number
    of fresh transactions integrated. Idempotent. *)
val integrate : t -> Gtxn.t list -> int

(** [integrate_history t merged] — adopt a completed mobile merge
    session's merged history ({!Repro_replication.Protocol.merged_history}
    of its report's splice: the merged tentative layer). Entries with
    unknown names are minted as fresh local gtxns (journaled); the rest
    rebind to the new order. Returns the minted gtxns, for shipping. *)
val integrate_history : t -> P.base_txn list -> Gtxn.t list

(** Current commit fence: [min] over all matrix entries. *)
val gvt : t -> int

(** Decide commitment for every tentative transaction at or below the
    fence: sort by {!Gtxn.compare_order}, re-execute canonically from
    the stable state, apply [commit_acceptance] per transaction,
    re-anchor the remaining tentative layer, reconcile the engine with
    the items {!State.diff} finds changed (none on a metadata-only
    commit), journal each decision and force once. Costs O(batch +
    layer) re-executions and one walk of the two states; only a
    re-anchoring commit also asks the semantic machinery whether it
    predicted metadata-only ([multibase.commit_semantic_miss]). Returns
    the newly decided [(id, committed)] pairs, in commit order. *)
val maybe_commit : t -> (Gtxn.id * bool) list

(** This base's current metadata summary, safe to advertise: the clock
    is the {e durable} clock. *)
type digest = {
  from_base : int;
  clock : int;
  have : int array;
  vv : int array;
  matrix : int array array;
}

val digest : t -> digest

(** Merge a peer's digest: Lamport clock join, sound [vv] adoption
    (only for origins where we hold at least as much), entrywise-max
    matrix gossip. *)
val gossip : t -> digest -> unit

(** [missing_for t d] — per-origin [(origin, from_seq)] pulls needed to
    catch up with a peer advertising [d]; empty when caught up. *)
val missing_for : t -> digest -> (int * int) list

(** [ship t ~want ~chunk] — up to [chunk] transactions satisfying the
    pull list, in (origin, seq) order, and whether the list was
    exhausted. Stateless and idempotent. *)
val ship : t -> want:(int * int) list -> chunk:int -> Gtxn.t list * bool

(** Journal a clock bump so the durable clock advances on an idle base
    (otherwise an idle base pins every peer's commit fence). *)
val tick : t -> unit

(** Crash and restart: volatile WAL tail lost, engine recovered, and
    all replication state rebuilt from the durable session journal —
    stable prefix (with decisions) from [mb-stable] records, tentative
    layer from the remaining known ids in arrival order, clocks from
    the journaled timestamps; peer knowledge ([matrix]) is forgotten
    (conservative: delays commits, never un-decides one). If the
    recovered engine lost a torn unforced tail, the applied state is
    reconciled to the journal-derived chain. *)
val restore : t -> Wal.recovery
