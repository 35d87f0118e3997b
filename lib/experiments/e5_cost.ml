open Repro_txn
open Repro_history
open Repro_replication
module Engine = Repro_db.Engine
module Rng = Repro_workload.Rng

type row = {
  overlap : float;
  runs : int;
  saved_fraction : float;
  merge_comm : float;
  merge_base_cpu : float;
  merge_base_io : float;
  merge_mobile_cpu : float;
  merge_total : float;
  reprocess_total : float;
  merge_wins : bool;
}

let n_shared = 20
let n_private = 20

let initial_state =
  State.of_list
    (List.init n_shared (fun i -> (Printf.sprintf "s%d" i, 100))
    @ List.init n_private (fun i -> (Printf.sprintf "p%d" i, 100)))

(* An additive two-update transaction; with probability [overlap] its
   items come from the shared pool (colliding with the base workload),
   otherwise from the mobile-private pool. *)
let additive_txn rng ~name ~overlap =
  let pool_prefix, pool_size =
    if Rng.bool rng overlap then ("s", n_shared) else ("p", n_private)
  in
  let i = Rng.int rng pool_size in
  let j = (i + 1 + Rng.int rng (pool_size - 1)) mod pool_size in
  let x = Printf.sprintf "%s%d" pool_prefix i in
  let y = Printf.sprintf "%s%d" pool_prefix j in
  Program.make ~name ~ttype:"order"
    ~params:[ ("a", Rng.in_range rng 1 9); ("b", Rng.in_range rng 1 9) ]
    [
      Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Param "a"));
      Stmt.Update (y, Expr.Add (Expr.Item y, Expr.Param "b"));
    ]

let base_txn rng ~name =
  let x = Printf.sprintf "s%d" (Rng.int rng n_shared) in
  Program.make ~name ~ttype:"base_update"
    ~params:[ ("a", Rng.in_range rng 1 9) ]
    [ Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Param "a")) ]

let one_case ~seed ~tentative_len ~base_len ~overlap =
  let rng = Rng.create seed in
  let tentative =
    List.init tentative_len (fun i ->
        additive_txn rng ~name:(Printf.sprintf "Tm%d" (i + 1)) ~overlap)
  in
  let base = List.init base_len (fun i -> base_txn rng ~name:(Printf.sprintf "Tb%d" (i + 1))) in
  let s0 = initial_state in
  (* Merge side. *)
  let engine = Engine.create s0 in
  let base_history =
    Protocol.index_history
      (List.map (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p }) base)
  in
  let merge_report =
    Protocol.merge ~config:Protocol.default_merge_config ~params:Cost.default_params
      ~base:engine ~base_history ~origin:s0 ~tentative:(History.of_programs tentative)
  in
  (* Reprocess side, identical setup. *)
  let engine' = Engine.create s0 in
  List.iter (fun p -> ignore (Engine.execute engine' p)) base;
  let reprocess_report =
    Protocol.reprocess ~acceptance:Protocol.accept_always ~params:Cost.default_params
      ~base:engine' ~origin:s0 ~tentative:(History.of_programs tentative)
  in
  (merge_report, reprocess_report)

let run ?(seeds = 20) ?(tentative_len = 40) ?(base_len = 20) ~overlaps () =
  List.map
    (fun overlap ->
      let cases =
        List.init seeds (fun seed ->
            one_case ~seed:(seed + 201) ~tentative_len ~base_len ~overlap)
      in
      let mean_of f = Mergecase.mean (List.map f cases) in
      let merge_total = mean_of (fun (m, _) -> Cost.total m.Protocol.cost) in
      let reprocess_total = mean_of (fun (_, r) -> Cost.total r.Protocol.cost) in
      {
        overlap;
        runs = seeds;
        saved_fraction =
          mean_of (fun (m, _) ->
              float_of_int (Names.Set.cardinal m.Protocol.saved) /. float_of_int tentative_len);
        merge_comm = mean_of (fun (m, _) -> m.Protocol.cost.Cost.communication);
        merge_base_cpu = mean_of (fun (m, _) -> m.Protocol.cost.Cost.base_cpu);
        merge_base_io = mean_of (fun (m, _) -> m.Protocol.cost.Cost.base_io);
        merge_mobile_cpu = mean_of (fun (m, _) -> m.Protocol.cost.Cost.mobile_cpu);
        merge_total;
        reprocess_total;
        merge_wins = merge_total < reprocess_total;
      })
    overlaps

let table rows =
  let tbl =
    Table.make ~title:"E5 (Section 7.1): merging vs reprocessing cost as |SAV| shrinks"
      ~columns:
        [
          "overlap"; "saved"; "comm"; "base-cpu"; "base-io"; "mobile-cpu"; "merge"; "reproc";
          "winner";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          Table.Pct r.overlap;
          Table.Pct r.saved_fraction;
          Table.Float r.merge_comm;
          Table.Float r.merge_base_cpu;
          Table.Float r.merge_base_io;
          Table.Float r.merge_mobile_cpu;
          Table.Float r.merge_total;
          Table.Float r.reprocess_total;
          Table.Str (if r.merge_wins then "merge" else "reprocess");
        ])
    rows;
  Table.note tbl
    "overlap = probability a tentative transaction touches base-shared items; cost unit = one \
     base statement execution. Paper claim: merging wins while SAV is large, reprocessing once \
     SAV is small.";
  tbl
