open Repro_txn
open Repro_history
module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc
module Topo = Repro_graph.Topo
module Obs = Repro_obs.Obs

let obs_builds = Obs.Counter.make "precedence.builds"
let obs_cyclic = Obs.Counter.make "precedence.cyclic_graphs"
let obs_nodes = Obs.Dist.make "precedence.nodes"
let obs_edges = Obs.Dist.make "precedence.edges"

type t = {
  graph : Digraph.t;
  summaries : Summary.t array;
  index : (Names.t, int) Hashtbl.t;
  tentative_count : int;  (* nodes [0, tentative_count) are the tentative block *)
  outside : int array;  (* per node: edges to full-graph nodes a cone left out *)
  acyclic : bool option ref;  (* cached first test; shared with the cone *)
  mutable cone : t option;
}

(* For each node, the later nodes sharing an item with it where at least
   one side writes: exactly the pairs an edge rule of [build] can fire on,
   since every rule needs such an item. Filled from the last node back, so
   each item's reader and writer lists hold only later nodes; each list
   comes out in increasing order. *)
let later_partners summaries =
  let n = Array.length summaries in
  let readers = Hashtbl.create 64 and writers = Hashtbl.create 64 in
  let touching tbl x = Option.value (Hashtbl.find_opt tbl x) ~default:[] in
  let seen = Array.make n (-1) in
  let partners = Array.make n [] in
  for i = n - 1 downto 0 do
    let s = summaries.(i) in
    let found = ref [] in
    let consider j =
      if seen.(j) <> i then begin
        seen.(j) <- i;
        found := j :: !found
      end
    in
    Item.Set.iter
      (fun x ->
        List.iter consider (touching writers x);
        List.iter consider (touching readers x))
      s.Summary.writeset;
    Item.Set.iter (fun x -> List.iter consider (touching writers x)) s.Summary.readset;
    partners.(i) <- List.sort Int.compare !found;
    let push tbl x = Hashtbl.replace tbl x (i :: touching tbl x) in
    Item.Set.iter (push readers) s.Summary.readset;
    Item.Set.iter (push writers) s.Summary.writeset
  done;
  partners

let build ~tentative ~base =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.build" @@ fun () ->
  let summaries = Array.of_list (tentative @ base) in
  let n = Array.length summaries in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i (s : Summary.t) ->
      if Hashtbl.mem index s.Summary.name then
        invalid_arg ("Precedence.build: duplicate transaction name " ^ s.Summary.name);
      Hashtbl.replace index s.Summary.name i)
    summaries;
  let graph = Digraph.create n in
  let m = List.length tentative in
  let later = later_partners summaries in
  (* [for j = lo to hi] restricted to the pairs that can gain an edge, in
     increasing order, so edges enter [graph] — and every successor and
     predecessor list — exactly as a pairwise scan adds them. *)
  let partners i lo hi f = List.iter (fun j -> if lo <= j && j <= hi then f j) later.(i) in
  (* Intra-history edges: earlier conflicting transaction -> later one. *)
  let intra lo hi =
    for i = lo to hi - 1 do
      partners i (i + 1) hi (fun j ->
          if Summary.conflicts summaries.(i) summaries.(j) then Digraph.add_edge graph i j)
    done
  in
  intra 0 (m - 1);
  intra m (n - 1);
  (* Cross edges: a transaction that read an item the other history's
     transaction updated saw the common original value, hence precedes. *)
  for i = 0 to m - 1 do
    partners i m (n - 1) (fun j ->
        let tm = summaries.(i) and tb = summaries.(j) in
        if not (Item.Set.disjoint tm.Summary.readset tb.Summary.writeset) then
          Digraph.add_edge graph i j;
        if not (Item.Set.disjoint tb.Summary.readset tm.Summary.writeset) then
          Digraph.add_edge graph j i;
        (* Blind-write adaptation: a write-write overlap with no read on
           either side produces no edge under the paper's literal rules,
           leaving the merged order of the two writes ambiguous. Order the
           base transaction first (the tentative write wins, matching the
           protocol's forwarded updates). With no blind writes this never
           fires: writeset ⊆ readset makes the overlap a two-cycle above. *)
        if
          (not (Item.Set.disjoint tm.Summary.writeset tb.Summary.writeset))
          && not (Digraph.mem_edge graph i j)
        then Digraph.add_edge graph j i)
  done;
  Obs.Counter.incr obs_builds;
  Obs.Dist.observe_int obs_nodes n;
  Obs.Dist.observe_int obs_edges (Digraph.edge_count graph);
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Base
      ~attrs:
        [ ("nodes", Obs.Event.Int n); ("edges", Obs.Event.Int (Digraph.edge_count graph)) ]
      "precedence.built";
  {
    graph;
    summaries;
    index;
    tentative_count = m;
    outside = Array.make n 0;
    acyclic = ref None;
    cone = None;
  }

let of_executions ~tentative ~base =
  build
    ~tentative:(Summary.of_execution ~kind:Summary.Tentative tentative)
    ~base:(Summary.of_execution ~kind:Summary.Base base)

let graph t = t.graph
let summaries t = t.summaries

let node_of t name =
  match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

let summary_of_node t i = t.summaries.(i)

let tentative_count t = t.tentative_count
let outside_degree t i = t.outside.(i)

(* Edges inside one history point forward, so every cycle takes a cross
   edge and passes through the tentative block: a three-colour DFS rooted
   at the tentative nodes alone meets every cycle there is. *)
let is_acyclic t =
  match !(t.acyclic) with
  | Some a -> a
  | None ->
    let color = Array.make (Array.length t.summaries) 0 in
    let rec visit v =
      match color.(v) with
      | 1 -> false
      | 2 -> true
      | _ ->
        color.(v) <- 1;
        let ok = List.for_all visit (Digraph.successors t.graph v) in
        color.(v) <- 2;
        ok
    in
    let rec from i = i >= t.tentative_count || (visit i && from (i + 1)) in
    let a = from 0 in
    t.acyclic := Some a;
    if not a then Obs.Counter.incr obs_cyclic;
    a

(* The tentative nodes plus every base node reachable from one and
   reaching one. A node on a cycle through tentative [t] is reached from
   [t] and reaches it, so the cone keeps every cycle, renumbered in
   increasing order with each successor list in order; docs/PERFORMANCE.md
   ("The conflict cone") shows why Tarjan then lists the cyclic
   components exactly as on the full graph. *)
let cone t =
  match t.cone with
  | Some c -> c
  | None ->
    let g = t.graph and n = Array.length t.summaries and m = t.tentative_count in
    let reach next =
      let seen = Array.make n false in
      let rec visit v =
        if not seen.(v) then begin
          seen.(v) <- true;
          List.iter visit (next g v)
        end
      in
      Seq.iter visit (Seq.init m Fun.id);
      seen
    in
    let fwd = reach Digraph.successors and bwd = reach Digraph.predecessors in
    let old = Array.of_seq (Seq.filter (fun v -> v < m || (fwd.(v) && bwd.(v))) (Seq.init n Fun.id)) in
    let k = Array.length old in
    let node_of_old = Array.make n (-1) in
    Array.iteri (fun u v -> node_of_old.(v) <- u) old;
    let graph = Digraph.create k in
    (* A left-out neighbour is a base node on no cycle, so back-out never
       removes it; greedy adds the count to keep the full graph's degree. *)
    let outside = Array.make k 0 in
    let count_outside u w = if node_of_old.(w) < 0 then outside.(u) <- outside.(u) + 1 in
    Array.iteri
      (fun u v ->
        List.iter
          (fun w ->
            if node_of_old.(w) >= 0 then Digraph.add_edge graph u node_of_old.(w);
            count_outside u w)
          (Digraph.successors g v);
        List.iter (count_outside u) (Digraph.predecessors g v))
      old;
    let summaries = Array.map (fun v -> t.summaries.(v)) old in
    let index = Hashtbl.create k in
    Array.iteri (fun i (s : Summary.t) -> Hashtbl.replace index s.Summary.name i) summaries;
    let c =
      { graph; summaries; index; tentative_count = m; outside; acyclic = t.acyclic; cone = None }
    in
    c.cone <- Some c;
    t.cone <- Some c;
    c

let tentative_on_cycles t =
  let c = cone t in
  List.fold_left
    (fun acc i ->
      let s = c.summaries.(i) in
      if Summary.is_tentative s then Names.Set.add s.Summary.name acc else acc)
    Names.Set.empty
    (Scc.nodes_on_cycles c.graph)

let reduced t ~removed =
  Digraph.induced t.graph (fun i ->
      not (Names.Set.mem t.summaries.(i).Summary.name removed))

let merge_order t ~removed =
  Option.map
    (List.map (fun i -> t.summaries.(i).Summary.name))
    (Topo.sort (reduced t ~removed))

let pp ppf t =
  let pp_edge ppf (u, v) =
    Format.fprintf ppf "%s->%s" t.summaries.(u).Summary.name t.summaries.(v).Summary.name
  in
  Format.fprintf ppf "@[<v 2>precedence graph:@ %a@ edges: %a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Summary.pp)
    (Array.to_list t.summaries)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_edge)
    (Digraph.edges t.graph)
