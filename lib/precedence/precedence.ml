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
  mutable acyclic : bool option;  (* cached first Scc run over [graph] *)
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
  { graph; summaries; index; acyclic = None }

let of_executions ~tentative ~base =
  build
    ~tentative:(Summary.of_execution ~kind:Summary.Tentative tentative)
    ~base:(Summary.of_execution ~kind:Summary.Base base)

let graph t = t.graph
let summaries t = t.summaries

let node_of t name =
  match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

let summary_of_node t i = t.summaries.(i)

let is_acyclic t =
  match t.acyclic with
  | Some a -> a
  | None ->
    let a = Scc.is_acyclic t.graph in
    t.acyclic <- Some a;
    if not a then Obs.Counter.incr obs_cyclic;
    a

let tentative_on_cycles t =
  List.fold_left
    (fun acc i ->
      let s = t.summaries.(i) in
      if Summary.is_tentative s then Names.Set.add s.Summary.name acc else acc)
    Names.Set.empty
    (Scc.nodes_on_cycles t.graph)

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
