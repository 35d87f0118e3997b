(** Back-out strategies (Section 2.1 step 2, after [Dav84]).

    Given a cyclic precedence graph, compute the set **B** of tentative
    transactions whose removal breaks every cycle. Only tentative
    transactions are eligible (base transactions are durable); that is
    always sufficient because every cycle alternates through at least one
    tentative node — edges within one history all point forward in its
    serial order.

    Minimizing |B| is NP-complete ([Dav84]; the paper retains the result),
    so the practical strategies are heuristics; [Branch_and_bound] computes
    the optimum exactly at merge scale, with [Exhaustive] kept as the
    brute-force oracle it is tested against (see docs/PERFORMANCE.md for
    the algorithm and its bounds). *)

type strategy =
  | All_in_cycles
      (** every tentative transaction lying on a cycle; the coarsest and
          cheapest strategy *)
  | Greedy_degree
      (** repeatedly discard the tentative node with the highest degree
          inside a still-cyclic strongly connected component — the classic
          feedback-vertex-set heuristic Davidson evaluates *)
  | Two_cycle_then_greedy
      (** Davidson's "breaking two-cycles optimally": all two-cycles are
          broken first (in our setting a two-cycle pairs a tentative with a
          base transaction, so the tentative member is forced), then any
          remaining cycles fall to the greedy rule *)
  | Greedy_damage
      (** an extension beyond the paper: greedy like [Greedy_degree], but
          the victim is chosen to minimize the {e damage}
          |B ∪ reads-from closure of B| rather than |B| — what actually
          determines how much work the closure-based back-out discards
          (the rewriting algorithms later rescue part of it) *)
  | Branch_and_bound
      (** smallest B, exactly, by branch and bound over the cyclic core:
          each strongly connected component is solved independently (their
          optima sum), the incumbent is seeded from [Greedy_degree],
          branches pick a tentative member of a discovered cycle, and
          subtrees are cut by a vertex-disjoint cycle-packing lower bound
          plus memoization of visited removal sets. Fast at merge scale;
          prunes are counted in the [backout.bnb_nodes_pruned] counter *)
  | Exhaustive
      (** smallest B, by enumerating candidate subsets in increasing size;
          exponential — the brute-force oracle for [Branch_and_bound],
          intended for ≲ 20 cyclic tentative nodes *)

val all_strategies : strategy list
val strategy_name : strategy -> string

(** [compute ~strategy pg] — a set of tentative transaction names whose
    removal makes the graph acyclic. Returns the empty set when the graph
    is already acyclic.

    With at most one tentative transaction [t], B is forced: every cycle
    passes through [t] and only tentative transactions may be removed, so
    every strategy returns [{t}] on a cyclic graph and the empty set on
    an acyclic one. [compute] returns that from {!Precedence.is_acyclic}
    (cached on the merge path) and builds no cone; its assertion is
    {!Precedence.acyclic_without}, a DFS rooted at the tentative nodes
    outside B, which for [{t}] has no root.

    Otherwise every strategy runs on [Precedence.cone pg], built here
    before the span opens, over its dense arrays
    ({!Precedence.adjacency}): a removal marks a mask, each greedy round
    runs one {!Repro_graph.Scc.components_of_arrays} under it, and the
    exact solvers build their core from the cone's cyclic components. No
    graph is copied and no edge is hashed. On the cone every strategy
    returns what it returns on the full graph, and the assertion is
    {!breaks_all_cycles} on it.

    Every call asserts that B breaks every cycle, and the
    [backout.compute] span times the choice and that check.

    @raise Invalid_argument if some cycle contains no tentative
    transaction (impossible for graphs built by {!Precedence.build}). *)
val compute : strategy:strategy -> Precedence.t -> Repro_history.Names.Set.t

(** [breaks_all_cycles pg names] — removing [names] leaves an acyclic
    graph: a three-colour DFS over [Precedence.cone pg] with the named
    nodes masked out. Used by tests and by [compute]'s internal
    assertion. *)
val breaks_all_cycles : Precedence.t -> Repro_history.Names.Set.t -> bool
