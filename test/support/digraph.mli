(** Directed graphs over dense integer node identifiers [0 .. n-1]: a
    plain adjacency structure with O(1) edge tests.

    The library runs on [Repro_graph.Scc.components_of_arrays] and the
    precedence graph's own arrays; this is the reference graph the test
    oracles build and compare against (the pairwise scan, the reference
    back-out and merge order). *)

type t

(** [create n] is an edgeless graph over nodes [0 .. n-1]. *)
val create : int -> t

(** Number of nodes the graph was created with (including isolated ones). *)
val node_count : t -> int

(** Number of distinct edges. *)
val edge_count : t -> int

(** [add_edge g u v] adds the edge [u -> v]; duplicate additions are
    idempotent. Self-edges are permitted (they are cycles). *)
val add_edge : t -> int -> int -> unit

(** [mem_edge g u v] — does the edge [u -> v] exist? O(1). *)
val mem_edge : t -> int -> int -> bool

(** Successors of [u], in insertion order. *)
val successors : t -> int -> int list

(** Predecessors of [u], in insertion order. *)
val predecessors : t -> int -> int list

(** All edges as [(u, v)] pairs, grouped by source node. *)
val edges : t -> (int * int) list

(** All live nodes in increasing order; nodes dropped by {!induced} are
    excluded. *)
val nodes : t -> int list

(** [induced g keep] is the subgraph over the nodes for which [keep]
    holds (node identifiers are preserved; dropped nodes become
    isolated and are excluded from [nodes]). *)
val induced : t -> (int -> bool) -> t
