(** The precedence graph [G(H_m, H_b)] of Section 2.1, after [Dav84].

    Nodes are the transactions of both histories. Edges:
    - [T_i -> T_j] for conflicting tentative transactions with [T_i]
      before [T_j] in [H_m];
    - [T_i -> T_j] for conflicting base transactions with [T_i] before
      [T_j] in [H_b];
    - [T_m -> T_b] when tentative [T_m] read an item base [T_b] updated
      ([T_m] saw the common original value, so it must serialize before
      [T_b]);
    - [T_b -> T_m] when base [T_b] read an item tentative [T_m] updated.

    A cycle means no merged serial history can honour all reads
    (Theorem 1); the back-out strategies then select tentative
    transactions to discard.

    Blind-write adaptation: when two cross-history transactions overlap
    only on writes (neither reads the shared item — impossible under the
    paper's no-blind-writes assumption), an ordering edge
    [base -> tentative] is added so the merged serial order agrees with
    the protocol's forwarded updates (the tentative write wins). *)

type t

(** [build ~tentative ~base] constructs the graph; list order is history
    order. All names must be distinct across both lists.

    One pass indexes the readers and writers of every item, so each
    transaction is tested only against the transactions sharing an item
    with it where at least one side writes, not against every node. Edges
    enter the graph in the order of the pairwise scan over the tentative
    block, then the base block, then the cross pairs, so every
    successor and predecessor list — which back-out, SCC and DOT
    rendering read — is the scan's. *)
val build : tentative:Summary.t list -> base:Summary.t list -> t

(** [of_executions ~tentative ~base] builds from the dynamic read/write
    sets of two executions. *)
val of_executions :
  tentative:Repro_history.History.execution ->
  base:Repro_history.History.execution ->
  t

(** The underlying digraph; node [i] is [(summaries t).(i)]. *)
val graph : t -> Repro_graph.Digraph.t

(** All transaction summaries, tentative block first then base block,
    each in history order — the node numbering of {!graph}. *)
val summaries : t -> Summary.t array

(** Node identifier of a transaction name.
    @raise Not_found for unknown names. *)
val node_of : t -> Repro_history.Names.t -> int

(** Summary of a node identifier (inverse of {!node_of}). *)
val summary_of_node : t -> int -> Summary.t

(** Nodes [0 .. tentative_count t - 1] are the tentative block, the
    rest the base block. *)
val tentative_count : t -> int

(** Theorem 1's mergeability test. Edges inside one history point
    forward, so every cycle passes through the tentative block; a
    three-colour DFS rooted at the tentative nodes alone decides it,
    building no graph. Cached on the value (and shared with {!cone}), so
    repeated queries are free. *)
val is_acyclic : t -> bool

(** [cone t] — the session's conflict cone: the tentative nodes plus
    every base node reachable from a tentative node that also reaches
    one. It holds every cycle of [t], renumbered in increasing node order
    with each successor list kept in order, so Tarjan lists the cyclic
    components and their members as it does on [t], and every back-out
    strategy picks the same B on it. Cached on [t]; the cone of a cone is
    itself. *)
val cone : t -> t

(** [outside_degree t i] — edges between node [i] and the nodes of the
    full graph that {!cone} left out (0 on a graph from {!build}). Those
    nodes are base nodes on no cycle, never backed out, so greedy
    back-out adds this to the degree it ranks victims by. *)
val outside_degree : t -> int -> int

(** Names of tentative transactions lying on at least one cycle (read
    from {!cone}). *)
val tentative_on_cycles : t -> Repro_history.Names.Set.t

(** [reduced t ~removed] — the graph induced by dropping the named
    transactions (used to check that a candidate B breaks all cycles). *)
val reduced : t -> removed:Repro_history.Names.Set.t -> Repro_graph.Digraph.t

(** [merge_order t ~removed] — a serial order (names) of the remaining
    transactions compatible with the reduced graph, or [None] if still
    cyclic. Conflicting pairs within each history keep their original
    relative order. *)
val merge_order : t -> removed:Repro_history.Names.Set.t -> Repro_history.Names.t list option

(** Debug printer: nodes with their kinds, then edges by name. *)
val pp : Format.formatter -> t -> unit
