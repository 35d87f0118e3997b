open Repro_history
open Repro_precedence
module Gen = Repro_workload.Gen
module Rng = Repro_workload.Rng

type row = {
  skew : float;
  runs : int;
  cyclic_fraction : float;
  per_strategy : (string * float * float * float * float) list;
}

let run ?(seeds = 40) ?(tentative = 12) ?(base = 8) ?(blind = 0.3) ~skews () =
  List.map
    (fun skew ->
      let cases =
        List.init seeds (fun seed ->
            let rng = Rng.create (seed + 301) in
            let tentative_s, base_s =
              Gen.summaries rng ~n_items:15 ~tentative ~base ~reads:(1, 3) ~writes:(1, 2)
                ~skew ~blind
            in
            ( Precedence.build ~tentative:tentative_s ~base:(Precedence.Index.of_summaries base_s),
              tentative_s ))
      in
      let cyclic = List.filter (fun (pg, _) -> not (Precedence.is_acyclic pg)) cases in
      (* Every strategy is run once per cyclic case — including the two
         exact solvers, whose |B| doubles as the optimum the "optimal"
         column compares against and as the solver-agreement check. The
         optimum used to be recomputed exhaustively inside every
         strategy's loop; hoisting it here (and the compact-core
         feasibility check) is what took E6 from ~26s to well under a
         second. *)
      let solved =
        List.map
          (fun (pg, summaries) ->
            let results =
              List.map (fun s -> (s, Backout.compute ~strategy:s pg)) Backout.all_strategies
            in
            (results, summaries))
          cyclic
      in
      let per_strategy =
        List.map
          (fun strategy ->
            let measures =
              List.map
                (fun (results, summaries) ->
                  let size s = Names.Set.cardinal (List.assq s results) in
                  let b = List.assq strategy results in
                  let closure = Affected.closure summaries ~bad:b in
                  ( float_of_int (Names.Set.cardinal b),
                    float_of_int (Names.Set.cardinal closure),
                    (if Names.Set.cardinal b = size Backout.Branch_and_bound then 1.0 else 0.0),
                    if Names.Set.cardinal b = size Backout.Exhaustive then 1.0 else 0.0 ))
                solved
            in
            let mean f = Mergecase.mean (List.map f measures) in
            ( Backout.strategy_name strategy,
              mean (fun (b, _, _, _) -> b),
              mean (fun (_, c, _, _) -> c),
              mean (fun (_, _, o, _) -> o),
              mean (fun (_, _, _, a) -> a) ))
          Backout.all_strategies
      in
      {
        skew;
        runs = seeds;
        cyclic_fraction = float_of_int (List.length cyclic) /. float_of_int seeds;
        per_strategy;
      })
    skews

let table rows =
  let tbl =
    Table.make ~title:"E6 ([Dav84] step 2): back-out strategy comparison"
      ~columns:[ "skew"; "cyclic"; "strategy"; "|B|"; "|B u AG|"; "optimal"; "=oracle" ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun (name, b, c, opt, agree) ->
          Table.add_row tbl
            [
              Table.Float r.skew;
              Table.Pct r.cyclic_fraction;
              Table.Str name;
              Table.Float b;
              Table.Float c;
              Table.Pct opt;
              Table.Pct agree;
            ])
        r.per_strategy)
    rows;
  Table.note tbl
    "means over the cyclic cases only; optimal = how often the strategy's |B| equals the \
     branch-and-bound minimum; =oracle = agreement with the exhaustive enumerator \
     (branch-and-bound must read 100%).";
  tbl
