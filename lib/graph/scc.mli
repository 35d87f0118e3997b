(** Strongly connected components (Tarjan's algorithm, recursive): the
    cyclic components of the precedence graph's conflict cone. *)

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
