(* Tests for the public facade (Session) and the experiment layer: every
   experiment runs, its internal theorem checks hold, and the headline
   shapes the paper predicts are present. *)

open Repro_txn
open Repro_history
open Repro_replication
module Session = Repro_core.Session
module Paper = Repro_core.Paper
open Repro_experiments
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let inc name item d =
  Program.make ~name ~ttype:"inc"
    ~params:[ ("d", d) ]
    [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Param "d")) ]

let s0 = State.of_list [ ("x", 1); ("y", 2); ("z", 3) ]

(* Session *)

let test_merge_once_conflict_free () =
  let r = Session.merge_once ~s0 ~tentative:[ inc "Tm1" "x" 5 ] ~base:[ inc "Tb1" "y" 5 ] () in
  checkb "acyclic" true (Repro_precedence.Precedence.is_acyclic r.Session.precedence);
  checkb "all saved" true (Names.Set.is_empty r.Session.report.Protocol.backed_out);
  checki "merged x" 6 (State.get r.Session.merged_state "x");
  checki "merged y" 7 (State.get r.Session.merged_state "y")

let test_merge_once_paper_h4_flavor () =
  let tentative = [ Paper.h4_g2; Paper.h4_g3 ] in
  (* A base transaction that reads and writes u collides with G2. *)
  let base = [ inc "Tb1" "u" (-20) ] in
  let s0 = Paper.h4_s0 in
  let r = Session.merge_once ~s0 ~tentative ~base () in
  checkb "G2 backed out (u two-cycle)" true
    (Names.Set.mem "G2" r.Session.report.Protocol.backed_out);
  checkb "G3 saved" true (Names.Set.mem "G3" r.Session.report.Protocol.saved)

let test_compare_protocols_consistent_setup () =
  let tentative = List.init 8 (fun i -> inc (Printf.sprintf "Tm%d" (i + 1)) "x" 1) in
  let base = [ inc "Tb1" "y" 5 ] in
  let cmp = Session.compare_protocols ~s0 ~tentative ~base () in
  (* Same transactions executed both ways on additive items: same final
     state. *)
  checkb "states agree" true
    (State.equal cmp.Session.merge_result.Session.merged_state cmp.Session.reprocess_state);
  checkb "merge is cheaper here" true
    (Cost.total cmp.Session.merge_cost < Cost.total cmp.Session.reprocess_cost)

let test_history_duplicate_rejected () =
  Alcotest.check_raises "duplicate" (History.Duplicate_name "T") (fun () ->
      ignore (Session.history [ inc "T" "x" 1; inc "T" "y" 1 ]))

(* Experiments *)

let test_e1 () =
  let r = E1_example1.run () in
  checkb "cyclic" true r.E1_example1.cyclic;
  checkb "paper B feasible" true r.E1_example1.paper_b_feasible;
  Alcotest.check (Alcotest.list Alcotest.string) "merged history"
    [ "Tb1"; "Tb2"; "Tm1"; "Tm2" ] r.E1_example1.merged_history;
  Alcotest.check (Alcotest.list Alcotest.string) "affected" [ "Tm4" ] r.E1_example1.affected_of_tm3;
  checki "nine edges" 9 (List.length r.E1_example1.edges);
  List.iter
    (fun (name, b) ->
      if name <> "all-in-cycles" then checki (name ^ " is minimal") 1 (List.length b))
    r.E1_example1.strategies

let test_e2 () =
  let rows = E2_sync.run ~fleets:[ 3 ] ~duration:100.0 () in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      checki (r.E2_sync.isolation ^ " serializable") 0 r.E2_sync.violations;
      match r.E2_sync.isolation with
      | "strategy-2" -> checki "no anomalies under strategy 2" 0 r.E2_sync.anomalies
      | _ -> checki "no late sessions under strategy 1" 0 r.E2_sync.late)
    rows

let test_e3 () =
  let rows = E3_savings.run ~seeds:8 ~skews:[ 0.0; 1.3 ] () in
  List.iter
    (fun r ->
      checkb "Thm3" true r.E3_savings.thm3_holds;
      checkb "Thm4" true r.E3_savings.thm4_holds;
      checkb "Alg2 >= Alg1" true (r.E3_savings.saved_alg2 >= r.E3_savings.saved_alg1 -. 1e-9))
    rows;
  match rows with
  | [ low; high ] ->
    checkb "more conflict, fewer saved" true (high.E3_savings.saved_alg2 < low.E3_savings.saved_alg2)
  | _ -> Alcotest.fail "expected two rows"

let test_e4 () =
  let rows = E4_commute.run ~seeds:8 ~fractions:[ 0.0; 1.0 ] () in
  List.iter
    (fun r ->
      checkb "subset always" true r.E4_commute.subset_always;
      checkb "FPR >= CBTR" true (r.E4_commute.saved_fpr >= r.E4_commute.saved_cbtr -. 1e-9))
    rows

let test_e5_crossover () =
  let rows = E5_cost.run ~seeds:6 ~overlaps:[ 0.0; 1.0 ] () in
  match rows with
  | [ disjoint; contended ] ->
    checkb "merge wins with disjoint items" true disjoint.E5_cost.merge_wins;
    checkb "reprocess wins fully contended" true (not contended.E5_cost.merge_wins);
    checkb "saved fraction collapses" true
      (contended.E5_cost.saved_fraction < disjoint.E5_cost.saved_fraction)
  | _ -> Alcotest.fail "expected two rows"

let test_e6 () =
  let rows = E6_backout.run ~seeds:10 ~skews:[ 0.5 ] () in
  match rows with
  | [ r ] ->
    let find name =
      let _, b, _, _, _ = List.find (fun (n, _, _, _, _) -> n = name) r.E6_backout.per_strategy in
      b
    in
    let agree name =
      let _, _, _, _, a = List.find (fun (n, _, _, _, _) -> n = name) r.E6_backout.per_strategy in
      a
    in
    checkb "exhaustive <= two-cycle" true (find "exhaustive-minimal" <= find "two-cycle-optimal" +. 1e-9);
    checkb "two-cycle <= all-in-cycles" true (find "two-cycle-optimal" <= find "all-in-cycles" +. 1e-9);
    checkb "branch-and-bound agrees with the oracle" true (agree "branch-and-bound" = 1.0)
  | _ -> Alcotest.fail "expected one row"

let test_e7 () =
  let rows = E7_prune.run ~seeds:8 ~fractions:[ 1.0 ] () in
  match rows with
  | [ r ] ->
    checkb "correct" true r.E7_prune.all_correct;
    checkb "fully additive workloads are compensable" true
      (r.E7_prune.compensation_available > 0.99)
  | _ -> Alcotest.fail "expected one row"

let test_e8 () =
  let rows = E8_scaling.run ~fleets:[ 1; 8 ] () in
  match rows with
  | [ small; large ] ->
    checkb "reconciled fraction grows with the fleet" true
      (large.E8_scaling.reconciliation_fraction > small.E8_scaling.reconciliation_fraction);
    checkb "reconciliations grow superlinearly (8x traffic, >8x reconciliations)" true
      (large.E8_scaling.reconciliations > 8 * small.E8_scaling.reconciliations)
  | _ -> Alcotest.fail "expected two rows"

(* Scenario scripting *)

module Scenario = Repro_core.Scenario

let scenario_src =
  {|
// comment
init a=10 b=20 c=0
base   Tb1 { a := a * 2; }
mobile M Tm1 { a := a + 1; }
mobile M Tm2 { b := b + 5; }
mobile M Tm3 { c := c + b; }
connect M
expect a=21
expect b=25
expect c=25
|}

let test_scenario_merge () =
  match Scenario.run scenario_src with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    checki "all expectations hold" 0 o.Scenario.failed_expectations;
    checki "a" 21 (State.get o.Scenario.final_base "a");
    checkb "log mentions the merge" true
      (List.exists
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "connect M")
         o.Scenario.log)

let test_scenario_reprocess_differs () =
  (* Under reprocessing everything re-executes at the base: Tm1 reads the
     doubled a (20) and writes 21 — same here — but Tm3 reads b AFTER
     Tm2's re-executed +5, like the merge; the interesting check is just
     that the command is accepted and expectations still hold. *)
  let src =
    {|
init a=10 b=20 c=0
base   Tb1 { a := a * 2; }
mobile M Tm1 { a := a + 1; }
connect M reprocess
expect a=21
|}
  in
  match Scenario.run src with
  | Error msg -> Alcotest.fail msg
  | Ok o -> checki "ok" 0 o.Scenario.failed_expectations

let test_scenario_failed_expectation_counted () =
  let src = {|
init a=1
expect a=2
|} in
  match Scenario.run src with
  | Error msg -> Alcotest.fail msg
  | Ok o -> checki "one failure" 1 o.Scenario.failed_expectations

let test_scenario_two_mobiles () =
  (* Both mobiles increment the same item from the same origin; the
     second merge sees the first mobile's committed work as base history,
     forms a two-cycle, and re-executes — the increments still compose. *)
  let src =
    {|
init x=0
mobile A T1 { x := x + 1; }
mobile B T2 { x := x + 10; }
connect A
connect B
expect x=11
|}
  in
  match Scenario.run src with
  | Error msg -> Alcotest.fail msg
  | Ok o -> checki "compose" 0 o.Scenario.failed_expectations

let test_scenario_errors () =
  (match Scenario.run "base T { x := x + 1; }" with
  | Error msg -> checkb "init required" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error");
  (match Scenario.run "init a=1\nfrobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command accepted");
  (match Scenario.run "init a=1\nmobile M T { x := ; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad body accepted");
  (match Scenario.run "init a=1\nbase T { a := a + 1; }\nbase T { a := a + 1; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name accepted");
  (* A name is used once per scenario: a tentative transaction may not
     reuse a base name (either order), nor a name an earlier connect
     already merged into the base history. *)
  List.iter
    (fun (what, source, line) ->
      match Scenario.run source with
      | Error msg ->
        let want = Printf.sprintf "line %d: duplicate transaction name T1" line in
        Alcotest.(check string) what want msg
      | Ok _ -> Alcotest.fail (what ^ ": duplicate name accepted")
      | exception e -> Alcotest.fail (what ^ ": " ^ Printexc.to_string e))
    [
      ( "base then mobile",
        "init a=1\nbase T1 { a := a + 1; }\nmobile M T1 { a := a * 2; }\nconnect M",
        3 );
      ( "mobile then base",
        "init a=1\nmobile M T1 { a := a * 2; }\nbase T1 { a := a + 1; }\nconnect M",
        3 );
      ( "reuse after connect",
        "init a=1\nmobile M T1 { a := a * 2; }\nconnect M\nmobile M T1 { a := a + 1; }\nconnect M",
        4 );
    ]

let test_table_rendering () =
  let t = Table.make ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ Table.Int 1; Table.Str "x" ];
  Table.add_row t [ Table.Pct 0.5; Table.Float 2.0 ];
  let rendered = Format.asprintf "%a" Table.pp t in
  checkb "mentions title" true (String.length rendered > 0);
  let csv = Table.to_csv t in
  Alcotest.check (Alcotest.list Alcotest.string) "csv lines" [ "a,b"; "1,x"; "50.0%,2.00" ]
    (String.split_on_char '\n' csv)

let test_table_arity_checked () =
  let t = Table.make ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row (t): wrong arity") (fun () ->
      Table.add_row t [ Table.Int 1 ])

let () =
  Alcotest.run "repro_core"
    [
      ( "session",
        [
          Alcotest.test_case "conflict-free merge" `Quick test_merge_once_conflict_free;
          Alcotest.test_case "H4-flavoured merge" `Quick test_merge_once_paper_h4_flavor;
          Alcotest.test_case "protocol comparison" `Quick test_compare_protocols_consistent_setup;
          Alcotest.test_case "duplicates rejected" `Quick test_history_duplicate_rejected;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E1 Example 1" `Quick test_e1;
          Alcotest.test_case "E2 sync strategies" `Slow test_e2;
          Alcotest.test_case "E3 savings sweep" `Slow test_e3;
          Alcotest.test_case "E4 Theorem 4 sweep" `Slow test_e4;
          Alcotest.test_case "E5 cost crossover" `Slow test_e5_crossover;
          Alcotest.test_case "E6 back-out strategies" `Slow test_e6;
          Alcotest.test_case "E7 pruning" `Slow test_e7;
          Alcotest.test_case "E8 scaling" `Slow test_e8;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "merge session" `Quick test_scenario_merge;
          Alcotest.test_case "reprocess session" `Quick test_scenario_reprocess_differs;
          Alcotest.test_case "failed expectation" `Quick test_scenario_failed_expectation_counted;
          Alcotest.test_case "two mobiles" `Quick test_scenario_two_mobiles;
          Alcotest.test_case "errors" `Quick test_scenario_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering and csv" `Quick test_table_rendering;
          Alcotest.test_case "arity checked" `Quick test_table_arity_checked;
        ] );
    ]
