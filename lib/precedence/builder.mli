(** Incremental precedence-graph builder.

    {!Precedence.build} pays an O(n²) pairwise conflict scan on every
    merge, even though a reconnecting mobile usually extends a base
    history the server has already analyzed. This builder maintains the
    graph — and its acyclicity verdict — as history entries arrive:

    - per-item reader/writer indexes make one {!add} cost proportional to
      the transactions actually sharing an item with the newcomer, not to
      the whole history;
    - any cycle created by an addition must pass through the new node, so
      acyclicity is maintained by a single DFS from it (and once cyclic,
      the graph stays cyclic — nodes are never removed);
    - {!clone} is O(V+E), so a long-lived base-history builder can be
      forked per merge, extended with the session's tentative
      transactions, and discarded.

    The edge rules are exactly {!Precedence.build}'s, including the
    blind-write fallback's order sensitivity; the
    [test/test_precedence.ml] qcheck property [builder_equals_build]
    checks equality against a from-scratch build over random interleaved
    arrival orders. Each {!add} ticks the
    [precedence.incremental_updates] counter.

    Typical use — a Strategy 2 replication window keeps one builder
    mirroring its base history:

    {[
      let b = Builder.create () in
      Builder.add b (Summary.of_record ~kind:Summary.Base record);
      (* ... more base transactions as they commit ... *)
      let fork = Builder.clone b in
      Builder.add_all fork session_tentative_summaries;
      let pg = Builder.to_precedence fork in
      ...
    ]} *)

type t

(** A builder holding no transactions; its graph is trivially acyclic. *)
val create : unit -> t

(** Independent copy in O(V+E); subsequent {!add}s to either side do not
    affect the other. *)
val clone : t -> t

(** Number of transactions added so far. *)
val length : t -> int

(** Current acyclicity verdict, maintained incrementally — O(1). *)
val is_acyclic : t -> bool

(** [add t s] appends one transaction. Arrival order within each kind is
    that kind's history order; tentative and base arrivals may be freely
    interleaved.

    @raise Invalid_argument on a duplicate transaction name. *)
val add : t -> Summary.t -> unit

(** [add_all t summaries] — {!add} each in list order. *)
val add_all : t -> Summary.t list -> unit

(** Materialize the current graph as an immutable {!Precedence.t} whose
    node numbering, edge set and acyclicity verdict are identical to
    [Precedence.build ~tentative ~base] over the same summaries. The
    builder remains usable afterwards. *)
val to_precedence : t -> Precedence.t
