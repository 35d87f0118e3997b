(* Mobile banking branches: the workload the paper's introduction
   motivates. A disconnected branch office runs banking transactions
   against its replica; on reconnect, the session is merged (or
   reprocessed) into the master ledger.

   Two regimes are shown:
   - branch-local work (transfers inside the branch's own accounts):
     almost everything merges, one log force suffices — merging wins;
   - contended work (everything touches the bank-wide ledger): most
     tentative transactions conflict their way into B, and the paper's
     prediction that reprocessing wins at small SAV is visible.

   Run with: dune exec examples/mobile_banking.exe *)

open Repro_txn
open Repro_history
open Repro_replication
module Banking = Repro_workload.Banking
module Rng = Repro_workload.Rng
module Session = Repro_core.Session

let bank = Banking.make ~n_accounts:12
let section title = Format.printf "@.== %s ==@.@." title

let describe (cmp : Session.comparison) =
  let report = cmp.Session.merge_result.Session.report in
  Format.printf "saved %d / backed out %d@."
    (Names.Set.cardinal report.Protocol.saved)
    (Names.Set.cardinal report.Protocol.backed_out);
  Format.printf "merge:     %a@." Cost.pp cmp.Session.merge_cost;
  Format.printf "reprocess: %a@." Cost.pp cmp.Session.reprocess_cost;
  Format.printf "winner: %s@."
    (if Cost.total cmp.Session.merge_cost < Cost.total cmp.Session.reprocess_cost then
       "merging"
     else "reprocessing")

(* Regime 1: the branch works on its own accounts 0-5; head office works
   on 6-11. Transfers avoid the shared ledger entirely. *)
let branch_local () =
  section "Branch-local session (disjoint accounts; large SAV)";
  let rng = Rng.create 2024 in
  let transfer prefix lo hi i =
    let from_ = lo + Rng.int rng (hi - lo + 1) in
    let to_ = lo + ((from_ - lo + 1 + Rng.int rng (hi - lo)) mod (hi - lo + 1)) in
    Banking.transfer bank
      ~name:(Printf.sprintf "%s%d" prefix (i + 1))
      ~from_ ~to_ ~amount:(Rng.in_range rng 5 40)
  in
  let tentative = List.init 15 (transfer "Tm" 0 5) in
  let base = List.init 6 (transfer "Tb" 6 11) in
  let cmp = Session.compare_protocols ~s0:(Banking.initial_state bank) ~tentative ~base () in
  describe cmp

(* Regime 2: deposits and withdrawals, which all write the bank-wide
   ledger — a global hotspot that drags nearly every tentative
   transaction into B. *)
let contended () =
  section "Contended session (global ledger; small SAV)";
  let rng = Rng.create 4711 in
  let dep_or_wd prefix i =
    let name = Printf.sprintf "%s%d" prefix (i + 1) in
    let account = Rng.int rng 12 in
    let amount = Rng.in_range rng 5 40 in
    if Rng.bool rng 0.5 then Banking.deposit bank ~name ~account ~amount
    else Banking.withdraw bank ~name ~account ~amount
  in
  let tentative = List.init 15 (dep_or_wd "Tm") in
  let base = List.init 6 (dep_or_wd "Tb") in
  let cmp = Session.compare_protocols ~s0:(Banking.initial_state bank) ~tentative ~base () in
  describe cmp;
  Format.printf
    "@.(every deposit/withdrawal writes the bank-wide ledger, so tentative and base sessions \
     form two-cycles on it; B — which no transaction semantics can save — swallows the \
     session, matching the paper's small-SAV regime)@."

(* Consistency check: the merged state must equal replaying the merged
   logical history serially. *)
let audit_consistency () =
  section "Audit: merged state = serial replay of the merged order";
  let rng = Rng.create 99 in
  let tentative =
    List.init 10 (fun i ->
        Banking.random_transaction bank rng
          ~name:(Printf.sprintf "Tm%d" (i + 1))
          ~commuting_bias:0.7)
  in
  let base =
    List.init 5 (fun i ->
        Banking.random_transaction bank rng
          ~name:(Printf.sprintf "Tb%d" (i + 1))
          ~commuting_bias:0.7)
  in
  let s0 = Banking.initial_state bank in
  let result = Session.merge_once ~s0 ~tentative ~base () in
  let replayed =
    Protocol.replay s0
      (Protocol.merged_history result.Session.base_history
         result.Session.report.Protocol.splice)
  in
  Format.printf "consistent: %b@." (State.equal replayed result.Session.merged_state)

let () =
  branch_local ();
  contended ();
  audit_consistency ();
  Format.printf "@.mobile_banking: done@."
