open Repro_history
open Repro_replication
module Engine = Repro_db.Engine
module Banking = Repro_workload.Banking
module Rng = Repro_workload.Rng

type row = {
  mobiles : int;
  tentative : int;
  merged_fraction : float;
  reconciliations : int;
  reconciliation_fraction : float;
  backout_per_merge : float;
}

(* One resynchronization window, each mobile connecting exactly once: n
   mobiles build tentative transfer histories of fixed length from the
   common origin and merge sequentially into the base. Per-mobile traffic
   is constant, so fleet size is the only variable; a superlinearly
   growing reconciliation count is the update-anywhere instability
   signature. Transfers over a wide account pool keep a single mobile
   nearly conflict-free, making the growth visible. *)

let bank = Banking.make ~n_accounts:40

let transfer rng ~name =
  let from_ = Rng.int rng 40 in
  let to_ = (from_ + 1 + Rng.int rng 39) mod 40 in
  Banking.transfer bank ~name ~from_ ~to_ ~amount:(Rng.in_range rng 1 20)

let one_fleet ~seed ~per_mobile ~base_len mobiles =
  let rng = Rng.create (seed + mobiles) in
  let origin = Banking.initial_state bank in
  let window =
    Window.create ~protocol:(Window.Merging Protocol.default_merge_config)
      ~params:Cost.default_params (Engine.create origin)
  in
  for i = 1 to base_len do
    ignore (Window.base_txn window (transfer rng ~name:(Printf.sprintf "B%d" i)))
  done;
  for m = 1 to mobiles do
    let tentative =
      History.of_programs
        (List.init per_mobile (fun i ->
             transfer rng ~name:(Printf.sprintf "M%dT%d" m (i + 1))))
    in
    ignore (Window.merge window ~origin tentative)
  done;
  let c = Window.counts window in
  let reconciled = c.Window.reexecuted + c.Window.rejected in
  let tentative = mobiles * per_mobile in
  {
    mobiles;
    tentative;
    merged_fraction = float_of_int c.Window.saved /. float_of_int (max 1 tentative);
    reconciliations = reconciled;
    reconciliation_fraction = float_of_int reconciled /. float_of_int (max 1 tentative);
    backout_per_merge = float_of_int reconciled /. float_of_int (max 1 c.Window.merges);
  }

let run ?(seed = 31) ~fleets () =
  List.map (one_fleet ~seed ~per_mobile:12 ~base_len:10) fleets

let table rows =
  let tbl =
    Table.make
      ~title:"E8 (introduction / [GHOS96]): reconciliation load as the fleet scales"
      ~columns:
        [ "mobiles"; "tentative"; "merged"; "reconciled"; "reconciled%"; "backout/merge" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          Table.Int r.mobiles;
          Table.Int r.tentative;
          Table.Pct r.merged_fraction;
          Table.Int r.reconciliations;
          Table.Pct r.reconciliation_fraction;
          Table.Float r.backout_per_merge;
        ])
    rows;
  Table.note tbl
    "one window, each mobile connects once, per-mobile traffic fixed (12 transfers): traffic \
     grows linearly with the fleet while the reconciled fraction grows too — the superlinear \
     reconciliation growth of update-anywhere replication that motivates the paper.";
  tbl
