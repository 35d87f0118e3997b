(* Tests for the graph substrate: the reference digraph the test oracles
   build, the array Tarjan the merge path runs, and the weak components
   the window dispatcher's union-find finds. *)

module Digraph = Test_support.Digraph
module Scc = Repro_graph.Scc
module Ref_tarjan = Test_support.Ref_backout.Tarjan
module Admission = Repro_service.Admission
module Dispatch = Repro_service.Dispatch
module Smap = Repro_service.Smap
module Program = Repro_txn.Program
module Stmt = Repro_txn.Stmt
module Expr = Repro_txn.Expr

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

(* The arrays [Scc.components_of_arrays] reads, over nodes [0, n). *)
let succ_of n g = Array.init n (fun v -> Array.of_list (Digraph.successors g v))

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
  checkb "acyclic after cut" true
    (List.for_all
       (function [ v ] -> not (Digraph.mem_edge g' v v) | _ -> false)
       (Scc.components_of_arrays ~skip:(Array.init 4 (fun i -> i = 2)) (succ_of 4 g')));
  (* the original is untouched *)
  checki "original intact" 4 (Digraph.edge_count g)

let test_scc_ring () =
  let comps = Scc.components_of_arrays (succ_of 5 (ring 5)) in
  checki "one component" 1 (List.length comps);
  checki "of size five" 5 (List.length (List.hd comps))

let test_scc_chain () =
  let comps = Scc.components_of_arrays (succ_of 5 (chain 5)) in
  checki "five singleton components" 5 (List.length comps)

let test_scc_two_rings_bridged () =
  (* Nodes 0-2 form a ring, 3-5 form a ring, bridge 2 -> 3. *)
  let g = Digraph.create 6 in
  List.iter
    (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ];
  (* The condensation's topological order, members root first. *)
  Alcotest.(check (list (list int)))
    "two components" [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
    (Scc.components_of_arrays (succ_of 6 g))

(* The weak components of [g]'s live nodes, as [Dispatch.components]
   finds them: each live node is a base event, and an edge [u -> v] is an
   item [u] writes and [v] reads, so two events share a written item
   exactly when an edge joins their nodes. *)
let weak_components g =
  let nodes = Array.of_list (Digraph.nodes g) in
  let item u v = Printf.sprintf "e%d.%d" u v in
  let event v =
    let program =
      Program.make ~name:(Printf.sprintf "T%d" v)
        (List.map (fun u -> Stmt.Read (item u v)) (Digraph.predecessors g v)
        @ List.map (fun w -> Stmt.Update (item v w, Expr.Const 1)) (Digraph.successors g v))
    in
    Admission.Base { at = float_of_int v; program }
  in
  let comps, _ = Dispatch.components ~smap:(Smap.make ~shards:1 Smap.Hash) (Array.map event nodes) in
  List.map (fun c -> List.map (fun i -> nodes.(i)) c.Dispatch.members) comps

let test_weak_components () =
  let g = Digraph.create 6 in
  (* 0->1, 2->1 (direction ignored: one component), 3<->4 cycle, 5 isolated *)
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 3 4;
  Digraph.add_edge g 4 3;
  Alcotest.(check (list (list int)))
    "components by smallest member" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] (weak_components g);
  (* masked nodes drop out *)
  let g' = Digraph.induced g (fun i -> i <> 1) in
  Alcotest.(check (list (list int)))
    "induced" [ [ 0 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ] (weak_components g')

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
      let comps = Scc.components_of_arrays (succ_of 10 (graph_of_edges edges)) in
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
      let succ = succ_of 10 g in
      Scc.components_of_arrays succ = Ref_tarjan.components g
      && Scc.components_of_arrays ~skip succ
         = Ref_tarjan.components (Digraph.induced g (fun v -> not skip.(v))))

let prop_wcc_partition =
  QCheck.Test.make ~count:300 ~name:"weak components partition nodes; no edge crosses" gen_graph
    (fun edges ->
      let g = graph_of_edges edges in
      let comps = weak_components g in
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
        (weak_components g))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "add and query" `Quick test_add_and_query;
          Alcotest.test_case "range check" `Quick test_out_of_range_rejected;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "weak components" `Quick test_weak_components;
        ]
        @ qsuite [ prop_wcc_partition; prop_wcc_connected ] );
      ( "scc",
        [
          Alcotest.test_case "ring" `Quick test_scc_ring;
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "two rings bridged" `Quick test_scc_two_rings_bridged;
        ]
        @ qsuite [ prop_scc_partition; prop_tarjan_matches_reference ] );
    ]
