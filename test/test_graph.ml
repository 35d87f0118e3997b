(* Tests for the digraph substrate: adjacency, SCC, cycle queries,
   topological sorting. *)

module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc
module Topo = Repro_graph.Topo
module Ref_tarjan = Test_support.Ref_backout.Tarjan

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_il = Alcotest.check (Alcotest.list Alcotest.int)

let ring n =
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.add_edge g i ((i + 1) mod n)
  done;
  g

let chain n =
  let g = Digraph.create n in
  for i = 0 to n - 2 do
    Digraph.add_edge g i (i + 1)
  done;
  g

let test_add_and_query () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 0 1;
  (* duplicate is idempotent *)
  checki "edge count" 2 (Digraph.edge_count g);
  checkb "mem" true (Digraph.mem_edge g 0 1);
  checkb "not mem" false (Digraph.mem_edge g 1 0);
  check_il "successors in insertion order" [ 1; 2 ] (Digraph.successors g 0);
  check_il "predecessors" [ 0 ] (Digraph.predecessors g 1);
  checki "nodes" 4 (Digraph.node_count g)

let test_out_of_range_rejected () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "range check" (Invalid_argument "Digraph: node out of range") (fun () ->
      Digraph.add_edge g 0 5)

let test_induced () =
  let g = ring 4 in
  let g' = Digraph.induced g (fun i -> i <> 2) in
  checki "induced nodes" 3 (Digraph.node_count g');
  checki "induced edges" 2 (Digraph.edge_count g');
  checkb "acyclic after cut" true (Scc.is_acyclic g');
  (* the original is untouched *)
  checki "original intact" 4 (Digraph.edge_count g)

let test_transpose () =
  let g = chain 3 in
  let t = Digraph.transpose g in
  checkb "reversed edge" true (Digraph.mem_edge t 1 0);
  checkb "no forward edge" false (Digraph.mem_edge t 0 1)

let test_scc_ring () =
  let comps = Scc.components (ring 5) in
  checki "one component" 1 (List.length comps);
  checki "of size five" 5 (List.length (List.hd comps))

let test_scc_chain () =
  let comps = Scc.components (chain 5) in
  checki "five singleton components" 5 (List.length comps)

let test_scc_two_rings_bridged () =
  (* Nodes 0-2 form a ring, 3-5 form a ring, bridge 2 -> 3. *)
  let g = Digraph.create 6 in
  List.iter
    (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ];
  let comps = Scc.components g in
  checki "two components" 2 (List.length comps);
  checki "six cyclic nodes" 6 (List.length (Scc.nodes_on_cycles g))

let test_self_loop_is_cycle () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 1 1;
  checkb "not acyclic" false (Scc.is_acyclic g);
  check_il "node 1 on a cycle" [ 1 ] (Scc.nodes_on_cycles g);
  checkb "no topo order" true (Topo.sort g = None)

let test_two_cycles () =
  let g = Digraph.create 4 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 0); (2, 3); (3, 2); (0, 2) ];
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "both two-cycles found" [ (0, 1); (2, 3) ]
    (List.sort compare (Scc.two_cycles g))

let test_cycle_enumeration () =
  let g = Digraph.create 3 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 0); (0, 2) ];
  (* Elementary cycles: three 2-cycles and two 3-cycles. *)
  checki "five elementary cycles" 5 (List.length (Scc.cycles g))

let test_cycle_limit () =
  let g = ring 6 in
  checki "limit respected" 1 (List.length (Scc.cycles ~limit:1 g))

let test_topo_chain () =
  check_il "chain order" [ 0; 1; 2; 3; 4 ] (Topo.sort_exn (chain 5))

let test_topo_deterministic_tie_break () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 0 3;
  check_il "smallest-first" [ 0; 1; 2; 3 ] (Topo.sort_exn g)

let test_topo_cyclic_none () =
  checkb "cyclic graph has no order" true (Topo.sort (ring 3) = None)

let test_topo_respects_masks () =
  let g = ring 4 in
  let g' = Digraph.induced g (fun i -> i <> 0) in
  check_il "order of remaining" [ 1; 2; 3 ] (Topo.sort_exn g')

let test_weak_components () =
  let g = Digraph.create 6 in
  (* 0->1, 2->1 (direction ignored: one component), 3<->4 cycle, 5 isolated *)
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 3 4;
  Digraph.add_edge g 4 3;
  Alcotest.(check (list (list int)))
    "components by smallest member" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Digraph.weakly_connected_components g);
  (* masked nodes drop out *)
  let g' = Digraph.induced g (fun i -> i <> 1) in
  Alcotest.(check (list (list int)))
    "induced" [ [ 0 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Digraph.weakly_connected_components g')

(* Random-graph properties *)

let gen_graph =
  QCheck.make
    ~print:(fun edges -> String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))
    QCheck.Gen.(list_size (int_range 0 40) (pair (int_bound 9) (int_bound 9)))

let graph_of_edges edges =
  let g = Digraph.create 10 in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

let prop_scc_partition =
  QCheck.Test.make ~count:300 ~name:"SCCs partition the nodes" gen_graph (fun edges ->
      let g = graph_of_edges edges in
      let comps = Scc.components g in
      let all = List.concat comps in
      List.length all = 10 && List.sort compare all = List.init 10 Fun.id)

(* The array Tarjan against the hashtable one it replaced: the same
   components in the same order, each with its members in the same order
   (branch-and-bound numbers its core by them). A skip mask must act as
   the induced subgraph does. *)
let prop_tarjan_matches_reference =
  QCheck.Test.make ~count:500 ~name:"array Tarjan = hashtable Tarjan, order included"
    QCheck.(pair gen_graph (array_of_size (Gen.return 10) bool))
    (fun (edges, skip) ->
      let g = graph_of_edges edges in
      let succ = Array.init 10 (fun v -> Array.of_list (Digraph.successors g v)) in
      Scc.components_of_arrays succ = Ref_tarjan.components g
      && Scc.components g = Ref_tarjan.components g
      && Scc.components_of_arrays ~skip succ
         = Ref_tarjan.components (Digraph.induced g (fun v -> not skip.(v))))

let prop_wcc_partition =
  QCheck.Test.make ~count:300 ~name:"weak components partition nodes; no edge crosses" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      let comps = Digraph.weakly_connected_components g in
      let all = List.concat comps in
      (* A partition of the node set, each component ascending,
         components ordered by smallest member. *)
      List.sort compare all = List.init 10 Fun.id
      && List.for_all (fun c -> List.sort compare c = c) comps
      && (List.map List.hd comps |> fun heads -> List.sort compare heads = heads)
      && (* no edge crosses components *)
      let comp_of = Array.make 10 (-1) in
      List.iteri (fun ci c -> List.iter (fun v -> comp_of.(v) <- ci) c) comps;
      List.for_all (fun (u, v) -> comp_of.(u) = comp_of.(v)) (Digraph.edges g))

let prop_wcc_connected =
  QCheck.Test.make ~count:300 ~name:"weak components are undirected-connected" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      (* Undirected BFS within each claimed component reaches all of it. *)
      let neighbors u =
        List.sort_uniq compare (Digraph.successors g u @ Digraph.predecessors g u)
      in
      List.for_all
        (fun comp ->
          match comp with
          | [] -> false
          | root :: _ ->
            let in_comp = List.sort compare comp in
            let visited = Hashtbl.create 16 in
            let rec bfs = function
              | [] -> ()
              | u :: rest ->
                if Hashtbl.mem visited u then bfs rest
                else begin
                  Hashtbl.add visited u ();
                  bfs (List.filter (fun v -> List.mem v in_comp) (neighbors u) @ rest)
                end
            in
            bfs [ root ];
            List.for_all (Hashtbl.mem visited) comp)
        (Digraph.weakly_connected_components g))

let prop_topo_respects_edges =
  QCheck.Test.make ~count:300 ~name:"topological order respects every edge" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      match Topo.sort g with
      | None -> not (Scc.is_acyclic g)
      | Some order ->
        Scc.is_acyclic g
        && List.for_all
             (fun (u, v) ->
               let pos x =
                 let rec go i = function
                   | [] -> -1
                   | y :: rest -> if x = y then i else go (i + 1) rest
                 in
                 go 0 order
               in
               u = v || pos u < pos v)
             (Digraph.edges g))

let prop_cycles_are_cycles =
  QCheck.Test.make ~count:200 ~name:"enumerated cycles are genuine elementary cycles" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      List.for_all
        (fun cycle ->
          match cycle with
          | [] -> false
          | first :: _ ->
            let distinct = List.sort_uniq compare cycle in
            List.length distinct = List.length cycle
            &&
            let rec walk = function
              | [ last ] -> Digraph.mem_edge g last first
              | u :: (v :: _ as rest) -> Digraph.mem_edge g u v && walk rest
              | [] -> false
            in
            walk cycle)
        (Scc.cycles ~limit:500 g))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "add and query" `Quick test_add_and_query;
          Alcotest.test_case "range check" `Quick test_out_of_range_rejected;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "weak components" `Quick test_weak_components;
        ]
        @ qsuite [ prop_wcc_partition; prop_wcc_connected ] );
      ( "scc",
        [
          Alcotest.test_case "ring" `Quick test_scc_ring;
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "two rings bridged" `Quick test_scc_two_rings_bridged;
          Alcotest.test_case "self-loop" `Quick test_self_loop_is_cycle;
          Alcotest.test_case "two-cycles" `Quick test_two_cycles;
          Alcotest.test_case "cycle enumeration" `Quick test_cycle_enumeration;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
        ]
        @ qsuite [ prop_scc_partition; prop_cycles_are_cycles; prop_tarjan_matches_reference ] );
      ( "topo",
        [
          Alcotest.test_case "chain" `Quick test_topo_chain;
          Alcotest.test_case "deterministic ties" `Quick test_topo_deterministic_tie_break;
          Alcotest.test_case "cyclic has none" `Quick test_topo_cyclic_none;
          Alcotest.test_case "masks" `Quick test_topo_respects_masks;
        ]
        @ qsuite [ prop_topo_respects_edges ] );
    ]
