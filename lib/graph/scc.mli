(** Strongly connected components (Tarjan's algorithm, recursive) and the
    cycle queries the back-out strategies need. *)

(** [components_of_arrays ?skip succ] — the strongly connected
    components of the graph over nodes [0 .. Array.length succ - 1] whose
    node [v] has the successors [succ.(v)], in that order. Nodes with
    [skip.(v)] are left out, both as roots and as successors, as if
    removed from the graph.

    Roots are tried in increasing node order and each successor array is
    followed in order. A component is listed when its root finishes,
    consed onto the result, so the list is in topological order of the
    condensation; its members come in the order they were pushed, root
    first. Back-out's cyclic core is numbered in this order, and
    branch-and-bound's result depends on it. O(V + E). *)
val components_of_arrays : ?skip:bool array -> int array array -> int list list

(** The strongly connected components of the live nodes, as
    {!components_of_arrays} lists them over the graph's successor lists. *)
val components : Digraph.t -> int list list

(** A node lies on a cycle iff its component has ≥ 2 nodes or it has a
    self-edge. *)
val nodes_on_cycles : Digraph.t -> int list

(** [is_acyclic g] — no node lies on a cycle. *)
val is_acyclic : Digraph.t -> bool

(** [two_cycles g] — all unordered pairs [(u, v)], [u < v], with both
    [u -> v] and [v -> u]. Davidson's "breaking two-cycles optimally"
    strategy consumes these. *)
val two_cycles : Digraph.t -> (int * int) list

(** [cycles ?limit g] enumerates elementary cycles (as node lists) up to
    [limit] (default 10_000), via Johnson-style DFS within components.
    Intended for tests and small instances. *)
val cycles : ?limit:int -> Digraph.t -> int list list
