(* The precedence-graph edge rules applied to every pair, in the order
   [Precedence.build] promises to reproduce: the oracle for its item
   index and for the window's conflict index. [graph] gives the oracles
   that run on a [Digraph] the graph of a [Precedence.t] in that order. *)

open Repro_txn
open Repro_history
open Repro_precedence

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

(* [pg] as a [Digraph], read through [Precedence.successors] and entered
   in the scan's order: the tentative block, then the base block, then
   each tentative's cross pairs with its base partners ascending. Every
   successor and predecessor list is then the scan's; entering edges by
   source alone would put a base node's tentative predecessors first. *)
let graph pg =
  let n = Precedence.node_count pg and m = Precedence.tentative_count pg in
  let g = Digraph.create n in
  let succ = Array.init n (Precedence.successors pg) in
  Array.iteri
    (fun u ws -> List.iter (fun w -> if u < m = (w < m) then Digraph.add_edge g u w) ws)
    succ;
  let into = Array.make m [] in
  for b = n - 1 downto m do
    List.iter (fun i -> if i < m then into.(i) <- b :: into.(i)) succ.(b)
  done;
  for i = 0 to m - 1 do
    let out = List.filter (fun b -> b >= m) succ.(i) in
    List.iter
      (fun b ->
        if List.mem b out then Digraph.add_edge g i b;
        if List.mem b into.(i) then Digraph.add_edge g b i)
      (List.sort_uniq Int.compare (out @ into.(i)))
  done;
  g

(* The graph of [pg] with the named transactions dropped. *)
let reduced pg ~removed =
  Digraph.induced (graph pg) (fun v ->
      not (Names.Set.mem (Precedence.summary_of_node pg v).Summary.name removed))
