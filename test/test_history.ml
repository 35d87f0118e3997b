(* Tests for histories, augmented executions, the reads-from relation and
   the affected set, and the equivalence notions. *)

open Repro_txn
open Repro_history
module Equivalence = Test_support.Equivalence
module Ex = Test_support.Paper_examples
module G = Test_support.Generators

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let inc name item delta =
  Program.make ~name [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Const delta)) ]

let copy name ~from_ ~to_ =
  Program.make ~name [ Stmt.Update (to_, Expr.Add (Expr.Item from_, Expr.Const 0)) ]

let s0 = State.of_list [ ("a", 1); ("b", 10); ("c", 100); ("d", 1000) ]

let test_duplicate_names_rejected () =
  Alcotest.check_raises "duplicate" (History.Duplicate_name "T") (fun () ->
      ignore (History.of_programs [ inc "T" "a" 1; inc "T" "b" 1 ]))

(* [of_entries] against the table it replaced: a [Hashtbl] of the names
   seen so far, in list order. The first entry an earlier one shares its
   name with is the one reported. *)
let hashtbl_first_duplicate names =
  let seen = Hashtbl.create 16 in
  List.find_opt
    (fun name ->
      Hashtbl.mem seen name
      ||
      (Hashtbl.replace seen name ();
       false))
    names

let prop_of_entries_matches_hashtbl =
  QCheck.Test.make ~count:500 ~name:"of_entries duplicate check = Hashtbl reference"
    QCheck.(list_of_size Gen.(int_bound 12) (oneofl [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6" ]))
    (fun names ->
      let programs = List.mapi (fun i name -> inc name (if i mod 2 = 0 then "a" else "b") 1) names in
      match (hashtbl_first_duplicate names, History.of_programs programs) with
      | Some want, _ -> QCheck.Test.fail_reportf "no Duplicate_name %s raised" want
      | None, h -> History.names h = names
      | exception History.Duplicate_name got -> hashtbl_first_duplicate names = Some got)

let test_execute_threads_states () =
  let h = History.of_programs [ inc "T1" "a" 5; copy "T2" ~from_:"a" ~to_:"b"; inc "T3" "b" 1 ] in
  let exec = History.execute s0 h in
  Alcotest.check G.state "final" (State.of_list [ ("a", 6); ("b", 7); ("c", 100); ("d", 1000) ])
    exec.History.final;
  checki "three records" 3 (List.length exec.History.records);
  let r2 = History.record_of exec "T2" in
  Alcotest.check G.state "T2 before state"
    (State.of_list [ ("a", 6); ("b", 10); ("c", 100); ("d", 1000) ])
    r2.Interp.before

let test_restrict_and_append () =
  let h = History.of_programs [ inc "T1" "a" 1; inc "T2" "b" 1; inc "T3" "c" 1 ] in
  let evens = History.restrict h (fun n -> n = "T2") in
  Alcotest.check (Alcotest.list Alcotest.string) "restrict" [ "T2" ] (History.names evens);
  let back = History.append evens (History.restrict h (fun n -> n <> "T2")) in
  checki "append length" 3 (History.length back)

let test_readsfrom_edges () =
  let h = History.of_programs [ inc "T1" "a" 5; copy "T2" ~from_:"a" ~to_:"b"; inc "T3" "b" 1 ] in
  let exec = History.execute s0 h in
  let edges = Readsfrom.edges exec in
  let has reader writer item =
    List.exists
      (fun e -> e.Readsfrom.reader = reader && e.Readsfrom.writer = writer && e.Readsfrom.item = item)
      edges
  in
  checkb "T2 reads a from T1" true (has "T2" "T1" "a");
  checkb "T3 reads b from T2" true (has "T3" "T2" "b");
  checkb "no edge T3<-T1" false (has "T3" "T1" "a")

let test_readsfrom_latest_writer_wins () =
  let h = History.of_programs [ inc "T1" "a" 5; inc "T2" "a" 7; copy "T3" ~from_:"a" ~to_:"b" ] in
  let exec = History.execute s0 h in
  let edges = Readsfrom.edges exec in
  checkb "T3 reads a from T2 (not T1)" true
    (List.exists (fun e -> e.Readsfrom.reader = "T3" && e.Readsfrom.writer = "T2") edges
    && not (List.exists (fun e -> e.Readsfrom.reader = "T3" && e.Readsfrom.writer = "T1" && e.Readsfrom.item = "a") edges))

let test_affected_transitive () =
  (* T1(bad) -> T2 reads from T1 -> T3 reads from T2: both affected. *)
  let h =
    History.of_programs
      [ inc "T1" "a" 5; copy "T2" ~from_:"a" ~to_:"b"; copy "T3" ~from_:"b" ~to_:"c"; inc "T4" "d" 1 ]
  in
  let exec = History.execute s0 h in
  let ag = Readsfrom.affected exec ~bad:(Names.Set.singleton "T1") in
  Alcotest.check G.name_set "AG" (Names.Set.of_names [ "T2"; "T3" ]) ag;
  Alcotest.check G.name_set "closure includes bad"
    (Names.Set.of_names [ "T1"; "T2"; "T3" ])
    (Readsfrom.closure exec ~bad:(Names.Set.singleton "T1"))

let test_affected_is_dynamic () =
  (* T2 statically reads "a" but its taken branch does not: unaffected. *)
  let t2 =
    Program.make ~name:"T2"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "c", Expr.Const 0),
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Const 1)) ],
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Item "a")) ] );
      ]
  in
  let h = History.of_programs [ inc "T1" "a" 5; t2 ] in
  let exec = History.execute s0 h in
  Alcotest.check G.name_set "dynamically unaffected" Names.Set.empty
    (Readsfrom.affected exec ~bad:(Names.Set.singleton "T1"))

let test_final_state_vs_conflict_equivalence () =
  (* The paper's point in Section 3: final-state equivalence is weaker
     than conflict equivalence. Two increments of the same item commute:
     both orders are final-state equivalent but order a conflicting pair
     differently. *)
  let h1 = History.of_programs [ inc "T1" "a" 3; inc "T2" "a" 5 ] in
  let h2 = History.of_programs [ inc "T2" "a" 5; inc "T1" "a" 3 ] in
  checkb "final-state equivalent" true (Equivalence.final_state_equivalent s0 h1 h2);
  checkb "not conflict equivalent" false (Equivalence.conflict_equivalent s0 h1 h2)

let test_conflict_equivalence_no_conflicts () =
  let h1 = History.of_programs [ inc "T1" "a" 3; inc "T2" "b" 5 ] in
  let h2 = History.of_programs [ inc "T2" "b" 5; inc "T1" "a" 3 ] in
  checkb "conflict equivalent" true (Equivalence.conflict_equivalent s0 h1 h2)

let test_prefix_of () =
  let h1 = History.of_programs [ inc "T1" "a" 1 ] in
  let h2 = History.of_programs [ inc "T1" "a" 1; inc "T2" "b" 1 ] in
  checkb "prefix" true (Equivalence.prefix_of h1 h2);
  checkb "not prefix" false (Equivalence.prefix_of h2 h1)

(* H1 as a fixed-history execution: the paper's running example of
   final-state equivalence via fixes. *)
let test_fixed_history_execution () =
  let h3 =
    History.of_entries
      [
        { History.program = Ex.h1_g2; History.fix = Fix.empty };
        { History.program = Ex.h1_b1; History.fix = Fix.of_list [ ("x", 1) ] };
      ]
  in
  let h1 = History.of_programs [ Ex.h1_b1; Ex.h1_g2 ] in
  checkb "H3 ≡ H1 (paper Section 3)" true
    (Equivalence.final_state_equivalent Ex.h1_s0 h1 h3)

(* properties *)

let prop_execution_composes =
  QCheck.Test.make ~count:200 ~name:"final state = folding Interp.apply"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:6)))
    (fun (s0, h) ->
      let by_fold =
        List.fold_left
          (fun s (e : History.entry) -> Interp.apply ~fix:e.History.fix s e.History.program)
          s0 (History.entries h)
      in
      State.equal by_fold (History.final_state s0 h))

let prop_affected_monotone =
  QCheck.Test.make ~count:200 ~name:"affected set grows with the bad set"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:6)))
    (fun (s0, h) ->
      let exec = History.execute s0 h in
      let names = History.names h in
      let bad_small = Names.Set.singleton (List.hd names) in
      let bad_large = Names.Set.of_names [ List.hd names; List.nth names 3 ] in
      Names.Set.subset
        (Readsfrom.closure exec ~bad:bad_small)
        (Readsfrom.closure exec ~bad:bad_large))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_history"
    [
      ( "history",
        [
          Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
          Alcotest.test_case "execute threads states" `Quick test_execute_threads_states;
          Alcotest.test_case "restrict/append" `Quick test_restrict_and_append;
          Alcotest.test_case "fixed-history execution (H1/H3)" `Quick
            test_fixed_history_execution;
        ]
        @ qsuite [ prop_execution_composes; prop_of_entries_matches_hashtbl ] );
      ( "reads-from",
        [
          Alcotest.test_case "edges" `Quick test_readsfrom_edges;
          Alcotest.test_case "latest writer wins" `Quick test_readsfrom_latest_writer_wins;
          Alcotest.test_case "transitive affected" `Quick test_affected_transitive;
          Alcotest.test_case "affected is dynamic" `Quick test_affected_is_dynamic;
        ]
        @ qsuite [ prop_affected_monotone ] );
      ( "equivalence",
        [
          Alcotest.test_case "final-state vs conflict" `Quick
            test_final_state_vs_conflict_equivalence;
          Alcotest.test_case "conflict equivalence" `Quick test_conflict_equivalence_no_conflicts;
          Alcotest.test_case "prefix" `Quick test_prefix_of;
        ] );
    ]
