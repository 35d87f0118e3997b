open Repro_history
open Repro_precedence
module Paper = Repro_core.Paper

type result = {
  edges : (string * string) list;
  cyclic : bool;
  tentative_on_cycles : string list;
  strategies : (string * string list) list;
  paper_b_feasible : bool;
  affected_of_tm3 : string list;
  merged_history : string list;
}

let run () =
  let base = Precedence.Index.of_summaries Paper.example1_base in
  let pg = Precedence.build ~tentative:Paper.example1_tentative ~base in
  let name i = (Precedence.summary_of_node pg i).Summary.name in
  let edges = List.map (fun (u, v) -> (name u, name v)) (Precedence.edges pg) in
  let strategies =
    List.map
      (fun s ->
        (Backout.strategy_name s, Names.Set.elements (Backout.compute ~strategy:s pg)))
      Backout.all_strategies
  in
  let bad = Names.Set.of_names [ "Tm3" ] in
  {
    edges;
    cyclic = not (Precedence.is_acyclic pg);
    tentative_on_cycles = Names.Set.elements (Precedence.tentative_on_cycles pg);
    strategies;
    paper_b_feasible = Backout.breaks_all_cycles pg bad;
    affected_of_tm3 = Names.Set.elements (Affected.affected Paper.example1_tentative ~bad);
    merged_history =
      (match Precedence.merge_order pg ~removed:(Names.Set.of_names [ "Tm3"; "Tm4" ]) with
      | Some (first, tail) ->
        let m = Precedence.tentative_count pg in
        let placed v =
          if v >= m then Precedence.Index.Moved (v - m)
          else Precedence.Index.Added (Precedence.summary_of_node pg v)
        in
        List.map
          (fun (s : Summary.t) -> s.Summary.name)
          (Precedence.Index.spliced base ~first (List.map placed tail))
      | None -> []);
  }

let tables r =
  let graph_tbl =
    Table.make ~title:"E1 (Figure 1): precedence graph of Example 1"
      ~columns:[ "edge"; "" ]
  in
  List.iter (fun (u, v) -> Table.add_row graph_tbl [ Table.Str u; Table.Str ("-> " ^ v) ]) r.edges;
  Table.note graph_tbl
    (Printf.sprintf "cyclic=%b; tentative on cycles = %s" r.cyclic
       (String.concat "," r.tentative_on_cycles));
  let backout_tbl =
    Table.make ~title:"E1: back-out strategies on Example 1" ~columns:[ "strategy"; "B"; "|B|" ]
  in
  List.iter
    (fun (s, b) ->
      Table.add_row backout_tbl
        [ Table.Str s; Table.Str (String.concat "," b); Table.Int (List.length b) ])
    r.strategies;
  Table.note backout_tbl
    (Printf.sprintf "paper's B = {Tm3} feasible: %b; AG(Tm3) = %s; merged history = %s"
       r.paper_b_feasible
       (String.concat "," r.affected_of_tm3)
       (String.concat " " r.merged_history));
  [ graph_tbl; backout_tbl ]
