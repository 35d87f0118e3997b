(* The precedence-graph edge rules applied to every pair, in the order
   [Precedence.build] promises to reproduce: the oracle for its item
   index and for the window's conflict index. *)

open Repro_txn
open Repro_precedence
module Digraph = Repro_graph.Digraph

let pairwise ~tentative ~base =
  let summaries = Array.of_list (tentative @ base) in
  let n = Array.length summaries in
  let graph = Digraph.create n in
  let m = List.length tentative in
  let intra lo hi =
    for i = lo to hi - 1 do
      for j = i + 1 to hi do
        if Summary.conflicts summaries.(i) summaries.(j) then Digraph.add_edge graph i j
      done
    done
  in
  intra 0 (m - 1);
  intra m (n - 1);
  for i = 0 to m - 1 do
    for j = m to n - 1 do
      let tm = summaries.(i) and tb = summaries.(j) in
      if not (Item.Set.disjoint tm.Summary.readset tb.Summary.writeset) then
        Digraph.add_edge graph i j;
      if not (Item.Set.disjoint tb.Summary.readset tm.Summary.writeset) then
        Digraph.add_edge graph j i;
      if
        (not (Item.Set.disjoint tm.Summary.writeset tb.Summary.writeset))
        && not (Digraph.mem_edge graph i j)
      then Digraph.add_edge graph j i
    done
  done;
  graph

(* [g] has the scan's edges, and every successor and predecessor list in
   the scan's order. *)
let agrees g ~tentative ~base =
  let scan = pairwise ~tentative ~base in
  Digraph.edges g = Digraph.edges scan
  && List.for_all
       (fun v -> Digraph.predecessors g v = Digraph.predecessors scan v)
       (Digraph.nodes scan)
