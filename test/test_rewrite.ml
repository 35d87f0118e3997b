(* Tests for the rewriting algorithms (Sections 4-5) and pruning
   (Section 6): the paper's H4 walkthrough, Theorems 2/3/4 as unit and
   property tests, Lemma 2 fix coarsening, and both pruning approaches
   against serial re-execution of the repaired history (Theorem 5). *)

open Repro_txn
open Repro_history
open Repro_rewrite
module Equivalence = Test_support.Equivalence
module Ex = Test_support.Paper_examples
module G = Test_support.Generators
module Gen_wl = Repro_workload.Gen
module Rng = Repro_workload.Rng

let thy = Semantics.default_theory
let checkb = Alcotest.check Alcotest.bool
let check_names = Alcotest.check G.name_set
let check_state = Alcotest.check G.state

let rewrite ?(fix_mode = Rewrite.Exact) algorithm ~s0 h ~bad =
  Rewrite.run ~theory:thy ~fix_mode algorithm ~s0 h ~bad

let names_of = Names.Set.of_names

(* ------------------------------------------------------------------ *)
(* The paper's H4 walkthrough *)

let h4 = History.of_programs [ Ex.h4_b1; Ex.h4_g2; Ex.h4_g3 ]
let h4_bad = names_of [ "B1" ]

let test_h4_algorithm1 () =
  let r = rewrite Rewrite.Can_follow ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  (* Algorithm 1 yields G2 B1^{u} G3: G3 is affected and stays. *)
  Alcotest.check (Alcotest.list Alcotest.string) "rewritten order" [ "G2"; "B1"; "G3" ]
    (History.names r.Rewrite.rewritten);
  check_names "saved" (names_of [ "G2" ]) r.Rewrite.saved;
  check_names "affected" (names_of [ "G3" ]) r.Rewrite.affected;
  let b1_entry = History.find r.Rewrite.rewritten "B1" in
  Alcotest.check G.item_set "B1 fix is {u}" (Item.Set.of_names [ "u" ])
    (Fix.domain b1_entry.History.fix);
  checkb "fix pins u at its originally-read value" true
    (Fix.find b1_entry.History.fix "u" = Some 30)

let test_h4_algorithm2 () =
  let r = rewrite Rewrite.Can_follow_precede ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  (* Algorithm 2 additionally saves G3 through can-precede. *)
  Alcotest.check (Alcotest.list Alcotest.string) "rewritten order" [ "G2"; "G3"; "B1" ]
    (History.names r.Rewrite.rewritten);
  check_names "saved" (names_of [ "G2"; "G3" ]) r.Rewrite.saved

let test_h4_commute_only () =
  let r = rewrite Rewrite.Commute_only ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  (* G2 writes B1's guard item u, so pure commutativity cannot save it;
     only G3 commutes past B1. This realizes Theorem 4's strictness. *)
  check_names "saved" (names_of [ "G3" ]) r.Rewrite.saved

let test_h4_closure () =
  let r = rewrite Rewrite.Closure ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  check_names "saved" (names_of [ "G2" ]) r.Rewrite.saved

let test_h4_equivalence () =
  List.iter
    (fun alg ->
      let r = rewrite alg ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
      checkb
        (Rewrite.algorithm_name alg ^ " is final-state equivalent")
        true
        (State.equal r.Rewrite.execution.History.final
           (History.final_state Ex.h4_s0 r.Rewrite.rewritten)))
    [ Rewrite.Can_follow; Rewrite.Can_follow_precede; Rewrite.Commute_only ]

let test_h4_prune_compensation () =
  let r = rewrite Rewrite.Can_follow_precede ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  match Prune.compensate r with
  | Error e -> Alcotest.failf "unexpected: %a" Prune.pp_error e
  | Ok outcome ->
    check_state "compensation reaches the repaired state" (Prune.expected r) outcome.Prune.final;
    Alcotest.check Alcotest.int "one compensator" 1 outcome.Prune.compensators_run

let test_h4_prune_undo () =
  let r = rewrite Rewrite.Can_follow_precede ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  let outcome = Prune.undo r in
  check_state "undo+repair reaches the repaired state" (Prune.expected r) outcome.Prune.final;
  (* The paper's narrative: undoing B1 wipes G3's +10 on x; the
     undo-repair action re-executes exactly "x := x + 10" and drops the
     z-statement. *)
  Alcotest.check Alcotest.int "one URA" 1 outcome.Prune.uras_run;
  Alcotest.check Alcotest.int "single surviving update" 1 outcome.Prune.ura_updates;
  check_state "explicit repaired state"
    (State.of_list [ ("u", 10); ("x", 10); ("y", 50); ("z", 30) ])
    outcome.Prune.final

let test_h4_trace () =
  let r = rewrite Rewrite.Can_follow_precede ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  match r.Rewrite.trace with
  | [ m1; m2 ] ->
    Alcotest.check Alcotest.string "first mover" "G2" m1.Rewrite.mover;
    checkb "G2 jumped B1 via can-follow" true
      (m1.Rewrite.jumps = [ { Rewrite.jumped = "B1"; Rewrite.via = `Can_follow } ]);
    Alcotest.check Alcotest.string "second mover" "G3" m2.Rewrite.mover;
    checkb "G3 jumped B1 via can-precede" true
      (m2.Rewrite.jumps = [ { Rewrite.jumped = "B1"; Rewrite.via = `Can_precede } ]);
    checkb "trace renders" true
      (String.length (Format.asprintf "%a" Rewrite.pp_trace r) > 0)
  | _ -> Alcotest.fail "expected exactly two moves"

let test_h4_coarse_fixes () =
  let r = rewrite ~fix_mode:Rewrite.Coarse Rewrite.Can_follow ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  (* Lemma 2: B1's fix becomes readset − writeset = {u}, still
     equivalent. *)
  let b1_entry = History.find r.Rewrite.rewritten "B1" in
  Alcotest.check G.item_set "coarse fix" (Item.Set.of_names [ "u" ]) (Fix.domain b1_entry.History.fix);
  checkb "still equivalent" true
    (State.equal r.Rewrite.execution.History.final
       (History.final_state Ex.h4_s0 r.Rewrite.rewritten))

(* ------------------------------------------------------------------ *)
(* Degenerate and edge cases *)

let test_no_bad_transactions () =
  let r = rewrite Rewrite.Can_follow ~s0:Ex.h4_s0 h4 ~bad:Names.Set.empty in
  checkb "repaired = whole history" true (Equivalence.same_transactions r.Rewrite.repaired h4);
  Alcotest.check Alcotest.int "no moves" 0 r.Rewrite.moves

let test_all_bad () =
  let bad = History.name_set h4 in
  let r = rewrite Rewrite.Can_follow ~s0:Ex.h4_s0 h4 ~bad in
  checkb "repaired empty" true (History.is_empty r.Rewrite.repaired);
  let outcome = Prune.undo r in
  check_state "undo of everything returns to s0" Ex.h4_s0 outcome.Prune.final

let test_unknown_bad_rejected () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Rewrite.run: unknown bad transaction nope") (fun () ->
      ignore (rewrite Rewrite.Can_follow ~s0:Ex.h4_s0 h4 ~bad:(names_of [ "nope" ])))

let test_bad_first_good_later_saved () =
  (* B at the front, independent good transactions after: everything good
     is saved even by Algorithm 1. *)
  let inc name item =
    Program.make ~name [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Const 1)) ]
  in
  let h = History.of_programs [ inc "B" "a"; inc "G1" "b"; inc "G2" "c" ] in
  let s0 = State.of_list [ ("a", 0); ("b", 0); ("c", 0) ] in
  let r = rewrite Rewrite.Can_follow ~s0 h ~bad:(names_of [ "B" ]) in
  check_names "all good saved" (names_of [ "G1"; "G2" ]) r.Rewrite.saved

let test_read_only_good_always_saved () =
  (* A read-only transaction that read from B is affected and cannot be
     saved by Algorithm 1, but a read-only transaction reading untouched
     items moves past anything. *)
  let b = Program.make ~name:"B" [ Stmt.Update ("a", Expr.Add (Expr.Item "a", Expr.Const 1)) ] in
  let clean = Program.make ~name:"Gclean" [ Stmt.Read "b" ] in
  let dirty = Program.make ~name:"Gdirty" [ Stmt.Read "a" ] in
  let h = History.of_programs [ b; clean; dirty ] in
  let s0 = State.of_list [ ("a", 0); ("b", 0) ] in
  let r = rewrite Rewrite.Can_follow ~s0 h ~bad:(names_of [ "B" ]) in
  check_names "only the clean reader is saved" (names_of [ "Gclean" ]) r.Rewrite.saved;
  check_names "dirty reader affected" (names_of [ "Gdirty" ]) r.Rewrite.affected

let test_dynamic_sets_beat_static () =
  (* Gd statically reads "a" (written by B) but its guard steers execution
     away, so dynamically it never touches "a": dynamic can-follow saves
     it where a static implementation could not. *)
  let b = Program.make ~name:"B" [ Stmt.Update ("a", Expr.Add (Expr.Item "a", Expr.Const 1)) ] in
  let gd =
    Program.make ~name:"Gd"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "c", Expr.Const 0),
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Const 1)) ],
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Item "a")) ] );
      ]
  in
  let h = History.of_programs [ b; gd ] in
  let s0 = State.of_list [ ("a", 0); ("b", 0); ("c", 5) ] in
  let r = rewrite Rewrite.Can_follow ~s0 h ~bad:(names_of [ "B" ]) in
  check_names "saved despite static conflict" (names_of [ "Gd" ]) r.Rewrite.saved

(* ------------------------------------------------------------------ *)
(* Theorems as properties over random histories *)

let algorithms_with_fixes = [ Rewrite.Can_follow; Rewrite.Can_follow_precede; Rewrite.Commute_only ]

let prop_final_state_equivalence =
  QCheck.Test.make ~count:200 ~name:"Thm 2.4: rewritten ≡ original (all algorithms)"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      List.for_all
        (fun alg ->
          let r = rewrite alg ~s0 h ~bad in
          State.equal r.Rewrite.execution.History.final
            (History.final_state s0 r.Rewrite.rewritten))
        algorithms_with_fixes)

let prop_coarse_fix_equivalence =
  QCheck.Test.make ~count:200 ~name:"Lemma 2: coarse fixes preserve equivalence"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      List.for_all
        (fun alg ->
          let r = rewrite ~fix_mode:Rewrite.Coarse alg ~s0 h ~bad in
          State.equal r.Rewrite.execution.History.final
            (History.final_state s0 r.Rewrite.rewritten))
        [ Rewrite.Can_follow; Rewrite.Can_follow_precede ])

let prop_algorithm1_saves_exactly_unaffected =
  QCheck.Test.make ~count:200 ~name:"Thm 2.1: Algorithm 1 saves exactly G − AG"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let r = rewrite Rewrite.Can_follow ~s0 h ~bad in
      let good = Names.Set.diff (History.name_set h) bad in
      Names.Set.equal r.Rewrite.saved (Names.Set.diff good r.Rewrite.affected))

let prop_repaired_fixes_empty =
  QCheck.Test.make ~count:200 ~name:"Thm 2.3: repaired-history fixes are all empty"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      List.for_all
        (fun alg ->
          let r = rewrite alg ~s0 h ~bad in
          List.for_all
            (fun (e : History.entry) -> Fix.is_empty e.History.fix)
            (History.entries r.Rewrite.repaired))
        algorithms_with_fixes)

let prop_order_preservation =
  QCheck.Test.make ~count:200
    ~name:"Thm 2.2: good and bad blocks keep their internal orders (Alg 1)"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let r = rewrite Rewrite.Can_follow ~s0 h ~bad in
      let subseq keep l = List.filter (fun n -> Names.Set.mem n keep) l in
      let saved_order_orig = subseq r.Rewrite.saved (History.names h) in
      let saved_order_new = subseq r.Rewrite.saved (History.names r.Rewrite.rewritten) in
      let rest =
        Names.Set.diff (History.name_set h) r.Rewrite.saved
      in
      let rest_order_orig = subseq rest (History.names h) in
      let rest_order_new = subseq rest (History.names r.Rewrite.rewritten) in
      saved_order_orig = saved_order_new && rest_order_orig = rest_order_new)

let prop_theorem3_prefix =
  QCheck.Test.make ~count:200 ~name:"Thm 3: closure survivors are a prefix of Algorithm 1 output"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let closure = rewrite Rewrite.Closure ~s0 h ~bad in
      let alg1 = rewrite Rewrite.Can_follow ~s0 h ~bad in
      Equivalence.prefix_of closure.Rewrite.repaired alg1.Rewrite.rewritten)

let prop_theorem4_cbtr_subset_fpr =
  QCheck.Test.make ~count:300 ~name:"Thm 4: CBTR ⊆ FPR"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let cbtr = rewrite Rewrite.Commute_only ~s0 h ~bad in
      let fpr = rewrite Rewrite.Can_follow_precede ~s0 h ~bad in
      Names.Set.subset cbtr.Rewrite.saved fpr.Rewrite.saved)

let prop_algorithm2_saves_at_least_algorithm1 =
  QCheck.Test.make ~count:200 ~name:"Algorithm 2 saves a superset of Algorithm 1"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let a1 = rewrite Rewrite.Can_follow ~s0 h ~bad in
      let a2 = rewrite Rewrite.Can_follow_precede ~s0 h ~bad in
      Names.Set.subset a1.Rewrite.saved a2.Rewrite.saved)

(* ------------------------------------------------------------------ *)
(* Pruning properties over canned-system workloads (Theorem 5) *)

let workload_case seed =
  let rng = Rng.create seed in
  let pool = Gen_wl.pool Gen_wl.default_profile in
  let s0 = Gen_wl.initial_state pool rng in
  let h = Gen_wl.history pool rng ~prefix:"T" ~length:10 in
  let names = History.names h in
  let bad =
    List.filteri (fun i _ -> i mod 3 = 1) names |> names_of
  in
  (s0, h, bad)

let prop_undo_prune_matches_reexecution =
  QCheck.Test.make ~count:200 ~name:"Thm 5: undo + undo-repair = re-executing repaired history"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let s0, h, bad = workload_case seed in
      List.for_all
        (fun alg ->
          let r = rewrite alg ~s0 h ~bad in
          State.equal (Prune.expected r) (Prune.undo r).Prune.final)
        [ Rewrite.Can_follow; Rewrite.Can_follow_precede; Rewrite.Commute_only ])

let prop_compensation_prune_matches_reexecution =
  QCheck.Test.make ~count:200
    ~name:"Lemma 4: compensation pruning = re-executing repaired history (when derivable)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let s0, h, bad = workload_case seed in
      List.for_all
        (fun alg ->
          let r = rewrite alg ~s0 h ~bad in
          match Prune.compensate r with
          | Ok outcome -> State.equal (Prune.expected r) outcome.Prune.final
          | Error (Prune.Missing_compensator name) ->
            (* acceptable only if that suffix transaction is genuinely not
               derivable *)
            not (Compensation.derivable (History.find h name).History.program))
        [ Rewrite.Can_follow; Rewrite.Can_follow_precede ])

let prop_both_pruners_agree =
  QCheck.Test.make ~count:200 ~name:"compensation and undo pruning agree"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let s0, h, bad = workload_case seed in
      let r = rewrite Rewrite.Can_follow_precede ~s0 h ~bad in
      match Prune.compensate r with
      | Error _ -> QCheck.assume_fail ()
      | Ok c -> State.equal c.Prune.final (Prune.undo r).Prune.final)

(* ------------------------------------------------------------------ *)
(* Algorithm 3 structurally: each case of the undo-repair construction *)

let ura_scenario () =
  (* p runs from s0 = {x=10; z=20; w=7; q=1; r=3; g=5}. *)
  let p =
    Program.make ~name:"AG1" ~ttype:"ura-test"
      [
        Stmt.Read "r";
        Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1));
        Stmt.Update ("z", Expr.Add (Expr.Item "z", Expr.Item "w"));
        Stmt.Update ("q", Expr.Add (Expr.Item "q", Expr.Const 2));
      ]
  in
  let s0 = State.of_list [ ("x", 10); ("z", 20); ("w", 7); ("q", 1); ("r", 3); ("g", 5) ] in
  (p, Interp.run s0 p)

let test_ura_case1_removal () =
  (* No other backed-out transaction touched anything: every update is
     dropped and the URA is empty. *)
  let _, record = ura_scenario () in
  let ura =
    Ura.build ~updated_by_other:Item.Set.empty ~updated_by_preceding:Item.Set.empty record
  in
  Alcotest.check (Alcotest.list Alcotest.string) "empty body" []
    (List.map (Format.asprintf "%a" Stmt.pp) ura.Program.body)

let test_ura_case2_afterstate () =
  (* z was overwritten only by a LATER backed-out transaction: restore the
     after-state value directly. *)
  let _, record = ura_scenario () in
  let ura =
    Ura.build
      ~updated_by_other:(Item.Set.of_names [ "z" ])
      ~updated_by_preceding:Item.Set.empty record
  in
  Alcotest.check (Alcotest.list Alcotest.string) "after-state assignment" [ "z := 27" ]
    (List.map (Format.asprintf "%a" Stmt.pp) ura.Program.body)

let test_ura_case3_reexecution_and_binding () =
  (* x and z were contaminated by PRECEDING backed-out transactions: both
     statements re-execute; x's self-operand stays dynamic (the undo has
     restored the clean value), the untouched operand w is bound to the
     value originally read (7); q's statement is dropped (case 1) and the
     read of r is pruned as useless. *)
  let _, record = ura_scenario () in
  let ura =
    Ura.build
      ~updated_by_other:(Item.Set.of_names [ "x"; "z" ])
      ~updated_by_preceding:(Item.Set.of_names [ "x"; "z" ])
      record
  in
  Alcotest.check (Alcotest.list Alcotest.string) "case 3 body"
    [ "x := (x + 1)"; "z := (z + 7)" ]
    (List.map (Format.asprintf "%a" Stmt.pp) ura.Program.body)

let test_ura_binds_guard_items () =
  let p =
    Program.make ~name:"AG2" ~ttype:"ura-test"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "g", Expr.Const 0),
            [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1)) ],
            [] );
      ]
  in
  let s0 = State.of_list [ ("x", 10); ("g", 5) ] in
  let record = Interp.run s0 p in
  let ura =
    Ura.build
      ~updated_by_other:(Item.Set.of_names [ "x" ])
      ~updated_by_preceding:(Item.Set.of_names [ "x" ])
      record
  in
  Alcotest.check (Alcotest.list Alcotest.string) "guard bound to original value"
    [ "if 5 > 0 then { x := (x + 1) }" ]
    (List.map (Format.asprintf "%a" Stmt.pp) ura.Program.body)

(* ------------------------------------------------------------------ *)
(* Blind writes: the paper's omitted adaptation, realized here. The
   strengthened can-follow (write-write disjointness) keeps every
   rewriter final-state equivalent; exactness claims (Thm 2.1 / Thm 3)
   are no-blind-writes theorems and are not expected. *)

let prop_blind_equivalence =
  QCheck.Test.make ~count:300 ~name:"blind writes: rewritten ≡ original (all algorithms)"
    (G.arbitrary_state_history_bad_blind ~length:7)
    (fun (s0, (h, bad)) ->
      List.for_all
        (fun alg ->
          let r = rewrite alg ~s0 h ~bad in
          State.equal r.Rewrite.execution.History.final
            (History.final_state s0 r.Rewrite.rewritten))
        algorithms_with_fixes)

let prop_blind_saved_within_unaffected =
  QCheck.Test.make ~count:300
    ~name:"blind writes: Algorithm 1 saves only unaffected good transactions"
    (G.arbitrary_state_history_bad_blind ~length:7)
    (fun (s0, (h, bad)) ->
      let r = rewrite Rewrite.Can_follow ~s0 h ~bad in
      let good = Names.Set.diff (History.name_set h) bad in
      Names.Set.subset r.Rewrite.saved (Names.Set.diff good r.Rewrite.affected))

let prop_blind_theorem4 =
  QCheck.Test.make ~count:300 ~name:"blind writes: CBTR ⊆ FPR still holds"
    (G.arbitrary_state_history_bad_blind ~length:7)
    (fun (s0, (h, bad)) ->
      let cbtr = rewrite Rewrite.Commute_only ~s0 h ~bad in
      let fpr = rewrite Rewrite.Can_follow_precede ~s0 h ~bad in
      Names.Set.subset cbtr.Rewrite.saved fpr.Rewrite.saved)

let test_blind_write_semantics () =
  (* Assign does not read its target: a blind overwrite is insensitive to
     the previous value and records no self-read. *)
  let p = Program.make ~name:"B" [ Stmt.Assign ("x", Expr.Add (Expr.Item "y", Expr.Const 1)) ] in
  Alcotest.check G.item_set "readset excludes target" (Item.Set.of_names [ "y" ])
    (Program.readset p);
  let r = Interp.run (State.of_list [ ("x", 99); ("y", 5) ]) p in
  Alcotest.check G.item_set "dynamic reads exclude target" (Item.Set.of_names [ "y" ])
    (Interp.dynamic_readset r);
  Alcotest.check Alcotest.int "value written" 6 (State.get r.Interp.after "x")

let test_blind_ww_conflict_blocks_move () =
  (* G blind-writes x after bad B wrote it; G is NOT affected (it read
     nothing from B) but moving it before B would flip the final value of
     x — the strengthened can-follow refuses. *)
  let b = Program.make ~name:"B" [ Stmt.Update ("x", Expr.Mul (Expr.Item "x", Expr.Const 2)) ] in
  let g = Program.make ~name:"G" [ Stmt.Assign ("x", Expr.Const 42) ] in
  let h = History.of_programs [ b; g ] in
  let s0 = State.of_list [ ("x", 10) ] in
  let r = rewrite Rewrite.Can_follow ~s0 h ~bad:(names_of [ "B" ]) in
  check_names "G unaffected" Names.Set.empty r.Rewrite.affected;
  check_names "but not saved (ww conflict)" Names.Set.empty r.Rewrite.saved;
  checkb "still equivalent" true
    (State.equal r.Rewrite.execution.History.final
       (History.final_state s0 r.Rewrite.rewritten))

(* Example 1 at the program level: the static sets of the concrete
   programs equal the paper's declared sets, and the full merge plays out
   as the paper describes. *)

let test_example1_program_sets_match_summaries () =
  let check_against (summaries : Repro_precedence.Summary.t list) programs =
    List.iter2
      (fun (s : Repro_precedence.Summary.t) (p : Program.t) ->
        Alcotest.check Alcotest.string "name" s.Repro_precedence.Summary.name p.Program.name;
        Alcotest.check G.item_set
          (p.Program.name ^ " readset")
          s.Repro_precedence.Summary.readset (Program.readset p);
        Alcotest.check G.item_set
          (p.Program.name ^ " writeset")
          s.Repro_precedence.Summary.writeset (Program.writeset p))
      summaries programs
  in
  check_against Ex.example1_tentative Test_support.Paper_examples.example1_programs_tentative;
  check_against Ex.example1_base Test_support.Paper_examples.example1_programs_base

let test_example1_program_rewrite_with_paper_b () =
  (* With the paper's B = {Tm3}: Tm4 is affected (reads d6 from Tm3) and
     cannot be rescued (Tm3's writes are blind assignments, not additive),
     so the repaired history is exactly Tm1 Tm2 — matching the paper's
     merged history Tb1 Tb2 Tm1 Tm2. *)
  let h = History.of_programs Test_support.Paper_examples.example1_programs_tentative in
  let r =
    rewrite Rewrite.Can_follow_precede ~s0:Test_support.Paper_examples.example1_s0 h
      ~bad:(names_of [ "Tm3" ])
  in
  check_names "affected" (names_of [ "Tm4" ]) r.Rewrite.affected;
  check_names "saved = {Tm1, Tm2}" (names_of [ "Tm1"; "Tm2" ]) r.Rewrite.saved;
  checkb "equivalent" true
    (State.equal r.Rewrite.execution.History.final
       (History.final_state Test_support.Paper_examples.example1_s0 r.Rewrite.rewritten))

(* ------------------------------------------------------------------ *)
(* Static set mode *)

let rewrite_static ?(fix_mode = Rewrite.Exact) algorithm ~s0 h ~bad =
  Rewrite.run ~theory:thy ~fix_mode ~set_mode:Rewrite.Static algorithm ~s0 h ~bad

let test_static_mode_h4 () =
  (* H4 has no branch divergence between static and dynamic sets: the
     static rewriter reproduces the same result. *)
  let r = rewrite_static Rewrite.Can_follow_precede ~s0:Ex.h4_s0 h4 ~bad:h4_bad in
  check_names "saved" (names_of [ "G2"; "G3" ]) r.Rewrite.saved

let test_static_mode_misses_dynamic_save () =
  (* The counterpart of test_dynamic_sets_beat_static: under static sets
     the guard-steered transaction statically conflicts and is lost. *)
  let b = Program.make ~name:"B" [ Stmt.Update ("a", Expr.Add (Expr.Item "a", Expr.Const 1)) ] in
  let gd =
    Program.make ~name:"Gd"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "c", Expr.Const 0),
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Const 1)) ],
            [ Stmt.Update ("b", Expr.Add (Expr.Item "b", Expr.Item "a")) ] );
      ]
  in
  let h = History.of_programs [ b; gd ] in
  let s0 = State.of_list [ ("a", 0); ("b", 0); ("c", 5) ] in
  let r = rewrite_static Rewrite.Can_follow ~s0 h ~bad:(names_of [ "B" ]) in
  check_names "statically affected, not saved" Names.Set.empty r.Rewrite.saved;
  check_names "statically affected" (names_of [ "Gd" ]) r.Rewrite.affected

let prop_static_mode_equivalence =
  QCheck.Test.make ~count:200 ~name:"static mode: rewritten ≡ original (all algorithms)"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      List.for_all
        (fun alg ->
          let r = rewrite_static alg ~s0 h ~bad in
          State.equal r.Rewrite.execution.History.final
            (History.final_state s0 r.Rewrite.rewritten))
        algorithms_with_fixes)

let prop_static_mode_theorems =
  QCheck.Test.make ~count:200
    ~name:"static mode: Thm 2.1 (exact G−AG), Thm 3 (prefix), Thm 4 (subset)"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let closure = rewrite_static Rewrite.Closure ~s0 h ~bad in
      let a1 = rewrite_static Rewrite.Can_follow ~s0 h ~bad in
      let a2 = rewrite_static Rewrite.Can_follow_precede ~s0 h ~bad in
      let cbt = rewrite_static Rewrite.Commute_only ~s0 h ~bad in
      let good = Names.Set.diff (History.name_set h) bad in
      Names.Set.equal a1.Rewrite.saved (Names.Set.diff good a1.Rewrite.affected)
      && Equivalence.prefix_of closure.Rewrite.repaired a1.Rewrite.rewritten
      && Names.Set.subset cbt.Rewrite.saved a2.Rewrite.saved)

let prop_dynamic_affected_subset_of_static =
  QCheck.Test.make ~count:200 ~name:"dynamic affected ⊆ static affected"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let dyn = rewrite Rewrite.Can_follow ~s0 h ~bad in
      let stat = rewrite_static Rewrite.Can_follow ~s0 h ~bad in
      Names.Set.subset dyn.Rewrite.affected stat.Rewrite.affected)

let prop_static_mode_coarse_equivalence =
  QCheck.Test.make ~count:200 ~name:"static mode + coarse fixes stay equivalent"
    (G.arbitrary_state_history_bad ~length:7)
    (fun (s0, (h, bad)) ->
      let r = rewrite_static ~fix_mode:Rewrite.Coarse Rewrite.Can_follow ~s0 h ~bad in
      State.equal r.Rewrite.execution.History.final
        (History.final_state s0 r.Rewrite.rewritten))

(* ------------------------------------------------------------------ *)
(* A rewrite from an execution *)

(* Two results agree on everything a rewrite produces: histories with
   their fixes, name sets, counts, the scan trace, every captured
   verdict, and the execution's states and records. *)
let same_result (a : Rewrite.result) (b : Rewrite.result) =
  let entries h =
    List.map
      (fun (e : History.entry) -> (e.History.program.Program.name, Fix.to_list e.History.fix))
      (History.entries h)
  in
  let same_verdict x y =
    match (x, y) with
    | Rewrite.Follows, Rewrite.Follows | Rewrite.Commutes, Rewrite.Commutes -> true
    | Rewrite.Precedes d, Rewrite.Precedes d' | Rewrite.Blocked d, Rewrite.Blocked d' ->
      Item.Set.equal d d'
    | _ -> false
  in
  let same_decision (d : Rewrite.decision) (d' : Rewrite.decision) =
    String.equal d.Rewrite.target d'.Rewrite.target
    && same_verdict d.Rewrite.verdict d'.Rewrite.verdict
  in
  let same_attempt (x : Rewrite.attempt) (y : Rewrite.attempt) =
    String.equal x.Rewrite.att_mover y.Rewrite.att_mover
    && x.Rewrite.moved = y.Rewrite.moved
    && List.equal same_decision x.Rewrite.decisions y.Rewrite.decisions
  in
  let same_record (r : Interp.record) (r' : Interp.record) =
    String.equal r.Interp.program.Program.name r'.Interp.program.Program.name
    && r.Interp.reads = r'.Interp.reads && r.Interp.writes = r'.Interp.writes
  in
  let ea = a.Rewrite.execution and eb = b.Rewrite.execution in
  a.Rewrite.algorithm = b.Rewrite.algorithm
  && entries a.Rewrite.original = entries b.Rewrite.original
  && entries a.Rewrite.rewritten = entries b.Rewrite.rewritten
  && entries a.Rewrite.repaired = entries b.Rewrite.repaired
  && Names.Set.equal a.Rewrite.saved b.Rewrite.saved
  && Names.Set.equal a.Rewrite.bad b.Rewrite.bad
  && Names.Set.equal a.Rewrite.affected b.Rewrite.affected
  && a.Rewrite.moves = b.Rewrite.moves
  && a.Rewrite.pair_checks = b.Rewrite.pair_checks
  && a.Rewrite.trace = b.Rewrite.trace
  && List.equal same_attempt a.Rewrite.attempts b.Rewrite.attempts
  && State.equal ea.History.initial eb.History.initial
  && State.equal ea.History.final eb.History.final
  && List.equal same_record ea.History.records eb.History.records

(* [Rewrite.run] from [s0] against a rewrite from an execution, on
   generated merge cases, for all four algorithms under both fix modes
   and both set modes: from [History.execute s0], and from the execution
   the merge's graph phase made ([Protocol.analyze_graph] over the case's
   base history), also through [Protocol.rewrite_local]. *)
let test_run_execution_equals_run () =
  let module Mergecase = Repro_experiments.Mergecase in
  let module Protocol = Repro_replication.Protocol in
  let module Cost = Repro_replication.Cost in
  let module Engine = Repro_db.Engine in
  let strategy = Repro_precedence.Backout.Two_cycle_then_greedy in
  let params = Cost.default_params in
  let modes =
    [
      (Rewrite.Exact, Rewrite.Dynamic);
      (Rewrite.Coarse, Rewrite.Dynamic);
      (Rewrite.Exact, Rewrite.Static);
      (Rewrite.Coarse, Rewrite.Static);
    ]
  in
  let backed_out = ref 0 in
  for seed = 1 to 30 do
    let case =
      Mergecase.generate ~seed ~profile:Gen_wl.default_profile ~tentative_len:8 ~base_len:8
        ~strategy
    in
    let s0 = case.Mergecase.s0 and h = case.Mergecase.tentative and bad = case.Mergecase.bad in
    if not (Names.Set.is_empty bad) then incr backed_out;
    let engine = Engine.create s0 in
    let base_history =
      Protocol.index_history
        (List.map
           (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p })
           (History.programs case.Mergecase.base))
    in
    let g =
      Protocol.analyze_graph ~strategy ~params ~cost:(Cost.zero ()) ~base_history ~origin:s0
        ~tentative:h
    in
    let graph_exec = g.Protocol.gp_tentative_exec in
    List.iter
      (fun algorithm ->
        List.iter
          (fun (fix_mode, set_mode) ->
            let from_s0 =
              Rewrite.run ~theory:thy ~fix_mode ~set_mode ~capture:true algorithm ~s0 h ~bad
            in
            let exec = History.execute s0 h in
            let from_exec =
              Rewrite.run_execution ~theory:thy ~fix_mode ~set_mode ~capture:true algorithm exec
                ~bad
            in
            let from_graph =
              Rewrite.run_execution ~theory:thy ~fix_mode ~set_mode ~capture:true algorithm
                graph_exec ~bad
            in
            let what = Printf.sprintf "seed %d, %s" seed (Rewrite.algorithm_name algorithm) in
            checkb (what ^ ": from an execution") true (same_result from_s0 from_exec);
            checkb (what ^ ": from the graph phase's execution") true
              (same_result from_s0 from_graph);
            checkb (what ^ ": keeps the execution it was given") true
              (from_exec.Rewrite.execution == exec))
          modes;
        let config =
          {
            Protocol.default_merge_config with
            Protocol.algorithm;
            Protocol.capture_provenance = true;
          }
        in
        let r =
          Protocol.rewrite_local ~config ~params ~cost:(Cost.zero ()) ~tentative_exec:graph_exec
            ~bad
        in
        let from_s0 =
          Rewrite.run ~theory:config.Protocol.theory ~fix_mode:config.Protocol.fix_mode
            ~capture:true algorithm ~s0 h ~bad
        in
        checkb
          (Printf.sprintf "seed %d, %s: rewrite_local" seed (Rewrite.algorithm_name algorithm))
          true
          (same_result from_s0 r.Repro_replication.Protocol.rp_rewrite))
      Rewrite.all_algorithms
  done;
  checkb "some cases back transactions out" true (!backed_out >= 10)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_rewrite"
    [
      ( "paper-h4",
        [
          Alcotest.test_case "Algorithm 1" `Quick test_h4_algorithm1;
          Alcotest.test_case "Algorithm 2" `Quick test_h4_algorithm2;
          Alcotest.test_case "commute-only (Thm 4 strictness)" `Quick test_h4_commute_only;
          Alcotest.test_case "closure baseline" `Quick test_h4_closure;
          Alcotest.test_case "final-state equivalence" `Quick test_h4_equivalence;
          Alcotest.test_case "pruning by compensation" `Quick test_h4_prune_compensation;
          Alcotest.test_case "pruning by undo + URA" `Quick test_h4_prune_undo;
          Alcotest.test_case "Lemma 2 coarse fixes" `Quick test_h4_coarse_fixes;
          Alcotest.test_case "scan trace" `Quick test_h4_trace;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "no bad transactions" `Quick test_no_bad_transactions;
          Alcotest.test_case "all bad" `Quick test_all_bad;
          Alcotest.test_case "unknown bad rejected" `Quick test_unknown_bad_rejected;
          Alcotest.test_case "independent goods saved" `Quick test_bad_first_good_later_saved;
          Alcotest.test_case "read-only transactions" `Quick test_read_only_good_always_saved;
          Alcotest.test_case "dynamic sets beat static" `Quick test_dynamic_sets_beat_static;
          Alcotest.test_case "run from an execution = run from s0" `Quick
            test_run_execution_equals_run;
        ] );
      ("theorems", qsuite
        [
          prop_final_state_equivalence;
          prop_coarse_fix_equivalence;
          prop_algorithm1_saves_exactly_unaffected;
          prop_repaired_fixes_empty;
          prop_order_preservation;
          prop_theorem3_prefix;
          prop_theorem4_cbtr_subset_fpr;
          prop_algorithm2_saves_at_least_algorithm1;
        ] );
      ("pruning", qsuite
        [
          prop_undo_prune_matches_reexecution;
          prop_compensation_prune_matches_reexecution;
          prop_both_pruners_agree;
        ] );
      ( "ura",
        [
          Alcotest.test_case "case 1: removal" `Quick test_ura_case1_removal;
          Alcotest.test_case "case 2: after-state assignment" `Quick test_ura_case2_afterstate;
          Alcotest.test_case "case 3: re-execution and binding" `Quick
            test_ura_case3_reexecution_and_binding;
          Alcotest.test_case "guard items bound" `Quick test_ura_binds_guard_items;
        ] );
      ( "blind-writes",
        [
          Alcotest.test_case "Assign semantics" `Quick test_blind_write_semantics;
          Alcotest.test_case "ww conflict blocks move" `Quick test_blind_ww_conflict_blocks_move;
          Alcotest.test_case "Example 1 program sets" `Quick
            test_example1_program_sets_match_summaries;
          Alcotest.test_case "Example 1 rewrite with paper's B" `Quick
            test_example1_program_rewrite_with_paper_b;
        ]
        @ qsuite [ prop_blind_equivalence; prop_blind_saved_within_unaffected; prop_blind_theorem4 ]
      );
      ( "static-mode",
        [
          Alcotest.test_case "H4 under static sets" `Quick test_static_mode_h4;
          Alcotest.test_case "static misses dynamic save" `Quick
            test_static_mode_misses_dynamic_save;
        ]
        @ qsuite
            [
              prop_static_mode_equivalence;
              prop_static_mode_theorems;
              prop_dynamic_affected_subset_of_static;
              prop_static_mode_coarse_equivalence;
            ] );
    ]
