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

(** A window's history, indexed for conflict queries: the per-window
    conflict index that {!build} reads, and the store the window keeps its
    history in.

    Each transaction's {!Summary.t} is computed once, when it is linked.
    The index keeps the readers and writers of every item, each
    transaction's conflict partners split into those before and those
    after it, current positions, and a running count of the intra-history
    edges. Linking a transaction meets only the transactions it
    conflicts with ({!Summary.conflicts}): the writers of the items it
    touches and the readers of the items it writes. It waits until a
    graph needs the transaction ({!settle}), so transactions no later
    merge reads cost one node each. After a merge only the transactions
    whose position changed are touched: a merged order keeps every
    conflicting pair's relative order, so no old edge changes direction
    and no partner changes side (docs/PERFORMANCE.md §3).

    A value is a view: the history from some position on ({!suffix}),
    sharing one store with every other view of it. *)
module Index : sig
  type 'a t

  (** [create ~summary] — an empty history of ['a]s. [summary x]
      (computed once per linked transaction) must be a {!Summary.Base}
      summary. *)
  val create : summary:('a -> Summary.t) -> 'a t

  (** [of_list ~summary xs] — [xs] pushed in order. *)
  val of_list : summary:('a -> Summary.t) -> 'a list -> 'a t

  (** A history of summaries (their own names). *)
  val of_summaries : Summary.t list -> Summary.t t

  (** Transactions in the view. *)
  val length : 'a t -> int

  (** [get t i] — the view's [i]th transaction, from 0.
      @raise Invalid_argument out of range. *)
  val get : 'a t -> int -> 'a

  (** The view's transactions, oldest first; [~upto:n]: its first [n]. *)
  val to_list : ?upto:int -> 'a t -> 'a list

  (** [suffix t ~from] — the view from its position [from] on.
      @raise Invalid_argument unless [0 <= from <= length t]. *)
  val suffix : 'a t -> from:int -> 'a t

  (** Append a transaction at the end of the history. *)
  val push : 'a t -> 'a -> unit

  (** Link the transactions that entered since the last {!settle}.
      {!build} links first; settling beforehand keeps that work out of
      the [precedence.build] span. *)
  val settle : 'a t -> unit

  (** One transaction of a splice's tail: the view's transaction at a
      position, which moves to the tail, or a new one. *)
  type 'a placed = Moved of int | Added of 'a

  (** [splice t ~first tail] — commit a merge's order into the view:
      positions before [first] keep their transactions, and the view from
      [first] on becomes the transactions there that [tail] does not
      move, in their order, then [tail]. This is the order
      {!merge_order} returns as [(first, tail)], with each conflicting
      pair of old transactions kept in its relative order. Only positions
      from [first] on are re-laid: the moved nodes are found by position,
      so no name is hashed and the prefix is not walked. The new
      transactions wait to be linked. Every transaction of the view is
      kept exactly once.
      @raise Invalid_argument if [first] is out of range, or [tail] moves a
      position before [first], past the view or twice. *)
  val splice : 'a t -> first:int -> 'a placed list -> unit

  (** [spliced t ~first tail] — the view's transactions as
      [splice t ~first tail] would leave them, oldest first; [t] is not
      changed. O(length t).
      @raise Invalid_argument as {!splice}. *)
  val spliced : 'a t -> first:int -> 'a placed list -> 'a list

  (** Empty the whole history. *)
  val clear : 'a t -> unit
end

type t

(** [build ~tentative ~base] constructs G(H_m, H_b) of the [tentative]
    summaries (history order) against the indexed history [base]. All
    names must be distinct across the tentative block and [base].

    A build constructs only the session's part: the tentative block, its
    cross edges found through the index's item lists, and the edge count
    as intra-tentative + cross + the index's intra-history count over
    [base]. Base-to-base adjacency is read from the index on demand, so
    the graph is valid until the index next changes (a query after that
    raises [Invalid_argument]). Node [i < m] is the [i]th tentative
    transaction, node [m + k] is [Index.get base k]. *)
val build : tentative:Summary.t list -> base:_ Index.t -> t

(** [of_executions ~tentative ~base] builds from the dynamic read/write
    sets of two executions. *)
val of_executions :
  tentative:Repro_history.History.execution ->
  base:Repro_history.History.execution ->
  t

(** Nodes and edges of the graph. *)
val node_count : t -> int

val edge_count : t -> int

(** [successors t v] — node [v]'s successors in the order the pairwise
    scan over the tentative block, then the base block, then the cross
    pairs enters their edges: a node's successors in its own block
    ascending, then those in the other block ascending. Read from the
    index. *)
val successors : t -> int -> int list

(** [edges t] — every edge [(u, v)]: sources in increasing order, each
    source's successors as {!successors} lists them. DOT, the E1 table
    and {!pp} read it. *)
val edges : t -> (int * int) list

(** All transaction summaries, tentative block first then base block,
    each in history order — the node numbering of {!successors} and
    {!edges}. *)
val summaries : t -> Summary.t array

(** Summary of a node identifier. *)
val summary_of_node : t -> int -> Summary.t

(** Nodes [0 .. tentative_count t - 1] are the tentative block, the
    rest the base block. *)
val tentative_count : t -> int

(** Theorem 1's mergeability test. Edges inside one history point
    forward, so every cycle passes through the tentative block; a
    three-colour DFS rooted at the tentative nodes alone decides it,
    reading base adjacency from the index and building no graph. Cached
    on the value (and shared with {!cone}), so repeated queries are
    free. *)
val is_acyclic : t -> bool

(** [acyclic_without t ~removed] — no cycle is left once the tentative
    transactions named in [removed] are removed: {!is_acyclic}'s DFS,
    rooted at the kept tentative nodes and skipping the removed ones.
    It builds no cone, and with no tentative node kept it answers without
    a walk. Not cached. *)
val acyclic_without : t -> removed:Repro_history.Names.Set.t -> bool

(** [cone t] — the session's conflict cone: the tentative nodes plus
    every base node reachable from a tentative node that also reaches
    one, found by a forward walk from the tentative nodes and a backward
    walk inside it over the index. It holds every cycle of [t],
    renumbered in increasing node order with each successor list kept in
    order, so Tarjan lists the cyclic components and their members as it
    does on [t], and every back-out strategy picks the same B on it.

    A dense graph: successor and predecessor [int array]s ({!adjacency}),
    the outside degrees and the summaries. Each member's partner lists
    are filtered down to members before the base ones are sorted; no
    edge is hashed. Valid after the index changes. Cached on [t]; the
    cone of a cone is itself. *)
val cone : t -> t

(** [adjacency t] — [(succ, pred)] of [cone t]: [succ.(v)] and
    [pred.(v)] are cone node [v]'s successors and predecessors, in the
    full graph's edge order (a tentative node's predecessors in its own
    block first, a base node's likewise). The cone's own arrays, not
    copies: read-only. *)
val adjacency : t -> int array array * int array array

(** [cyclic_components ?removed t] — the strongly connected components of
    [cone t] that hold a cycle (two or more nodes, or one with a
    self-edge), as {!Repro_graph.Scc.components_of_arrays} lists them over
    [fst (adjacency t)]. With [removed], the cone nodes it marks are left
    out, as if removed from the graph. *)
val cyclic_components : ?removed:bool array -> t -> int list list

(** [outside_degree t i] — edges between node [i] and the nodes of the
    full graph that {!cone} left out (0 on a graph from {!build}). Those
    nodes are base nodes on no cycle, never backed out, so greedy
    back-out adds this to the degree it ranks victims by. *)
val outside_degree : t -> int -> int

(** Names of tentative transactions lying on at least one cycle (read
    from {!cyclic_components}). *)
val tentative_on_cycles : t -> Repro_history.Names.Set.t

(** [merge_order t ~removed] — the serial order the merge commits, with
    the tentative transactions named in [removed] backed out, as a
    splice of the base history: Kahn's algorithm on the reduced graph
    under the priority "base before tentative, then lower node id",
    which disturbs the base history as little as possible.

    [Some (first, tail)]: [tail] is the kept tentatives and the base
    nodes they reach, in Kahn order; [first] is the first base position
    the merge moves, the smallest position ([v - tentative_count t]) of a
    base node in [tail], or the base length when [tail] holds none. The
    base nodes outside [tail] keep their base order in front of it —
    under that priority nothing goes before them — so the order is
    positions [0, first), then the positions from [first] on that [tail]
    does not hold, then [tail]: what {!Index.splice} commits and
    {!Index.spliced} lists. [None] while the reduced graph is still
    cyclic.

    Only what the tail walk reaches is marked or ordered: O(tail log
    tail) plus the tail's edges, with nothing the window's size.
    @raise Invalid_argument on a {!cone}, which has no base positions. *)
val merge_order : t -> removed:Repro_history.Names.Set.t -> (int * int list) option

(** Debug printer: nodes with their kinds, then edges by name. *)
val pp : Format.formatter -> t -> unit
