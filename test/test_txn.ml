(* Unit and property tests for the transaction substrate: expressions,
   programs, the interpreter and fixes, the static analyses, the
   can-precede detector (validated against the brute-force oracle), and
   compensating transactions. *)

open Repro_txn
module Ex = Test_support.Paper_examples
module G = Test_support.Generators

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Expressions and predicates *)

let test_expr_eval () =
  let read x = match x with "a" -> 6 | "b" -> -2 | _ -> 0 in
  let param = function "p" -> 10 | _ -> 0 in
  let eval e = Expr.eval ~param ~read e in
  checki "add" 4 (eval Expr.(Add (Item "a", Item "b")));
  checki "sub" 8 (eval Expr.(Sub (Item "a", Item "b")));
  checki "mul" (-12) (eval Expr.(Mul (Item "a", Item "b")));
  checki "div" (-3) (eval Expr.(Div (Item "a", Item "b")));
  checki "param" 10 (eval (Expr.Param "p"));
  checki "min" (-2) (eval Expr.(Min (Item "a", Item "b")));
  checki "max" 6 (eval Expr.(Max (Item "a", Item "b")));
  checki "neg" (-6) (eval (Expr.Neg (Expr.Item "a")))

let test_expr_total_division () =
  let read _ = 7 in
  let param _ = 0 in
  checki "div by zero is 0" 0 (Expr.eval ~param ~read Expr.(Div (Item "a", Const 0)));
  checki "mod by zero is 0" 0 (Expr.eval ~param ~read Expr.(Mod (Item "a", Const 0)))

let test_expr_items () =
  check G.item_set "items of nested expr"
    (Item.Set.of_names [ "a"; "b"; "c" ])
    (Expr.items Expr.(Add (Item "a", Mul (Item "b", Sub (Item "c", Const 1)))))

let test_pred_eval () =
  let read x = if x = "a" then 5 else 3 in
  let param _ = 0 in
  let eval p = Pred.eval ~param ~read p in
  checkb "gt" true (eval (Pred.Gt (Expr.Item "a", Expr.Item "b")));
  checkb "and" true (eval (Pred.And (Pred.True, Pred.Ne (Expr.Item "a", Expr.Item "b"))));
  checkb "or-false" false (eval (Pred.Or (Pred.False, Pred.Lt (Expr.Item "a", Expr.Item "b"))));
  checkb "not" true (eval (Pred.Not (Pred.Eq (Expr.Item "a", Expr.Item "b"))))

(* ------------------------------------------------------------------ *)
(* Programs: static sets and validation *)

let test_program_validation_rejects_double_update () =
  let body =
    [
      Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1));
      Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 2));
    ]
  in
  Alcotest.check_raises "double update on one path"
    (Program.Ill_formed "t: item x updated twice on a path") (fun () ->
      ignore (Program.make ~name:"t" body))

let test_program_validation_accepts_branch_updates () =
  (* One update per path even though x appears in both branches. *)
  let p =
    Program.make ~name:"t"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "x", Expr.Const 0),
            [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1)) ],
            [ Stmt.Update ("x", Expr.Sub (Expr.Item "x", Expr.Const 1)) ] );
      ]
  in
  check G.item_set "writeset" (Item.Set.of_names [ "x" ]) (Program.writeset p)

let test_program_validation_rejects_unbound_param () =
  Alcotest.check_raises "unbound parameter"
    (Program.Ill_formed "t: unbound parameter $missing") (fun () ->
      ignore
        (Program.make ~name:"t" [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Param "missing")) ]))

let test_program_static_sets () =
  let p = Ex.h4_b1 in
  check G.item_set "B1 readset" (Item.Set.of_names [ "u"; "x"; "y" ]) (Program.readset p);
  check G.item_set "B1 writeset" (Item.Set.of_names [ "x"; "y" ]) (Program.writeset p);
  check G.item_set "B1 read-only" (Item.Set.of_names [ "u" ]) (Program.read_only_items p);
  checkb "audit-style program is read-only" true
    (Program.is_read_only (Program.make ~name:"r" [ Stmt.Read "a"; Stmt.Read "b" ]))

(* no blind writes: writeset is always contained in readset *)
let prop_no_blind_writes =
  QCheck.Test.make ~count:200 ~name:"static writeset ⊆ static readset"
    (QCheck.make (G.program_gen ~name:"P"))
    (fun p -> Item.Set.subset (Program.writeset p) (Program.readset p))

(* The union-built read and write sets that the accumulators replaced:
   a fresh set per expression node and per statement, unioned upwards. *)
let rec union_expr_items = function
  | Expr.Const _ | Expr.Param _ -> Item.Set.empty
  | Expr.Item x -> Item.Set.singleton x
  | Expr.Neg e -> union_expr_items e
  | Expr.Add (a, b)
  | Expr.Sub (a, b)
  | Expr.Mul (a, b)
  | Expr.Div (a, b)
  | Expr.Mod (a, b)
  | Expr.Min (a, b)
  | Expr.Max (a, b) ->
    Item.Set.union (union_expr_items a) (union_expr_items b)

let rec union_pred_items = function
  | Pred.True | Pred.False -> Item.Set.empty
  | Pred.Eq (a, b) | Pred.Ne (a, b) | Pred.Lt (a, b) | Pred.Le (a, b) | Pred.Gt (a, b)
  | Pred.Ge (a, b) ->
    Item.Set.union (union_expr_items a) (union_expr_items b)
  | Pred.Not q -> union_pred_items q
  | Pred.And (a, b) | Pred.Or (a, b) -> Item.Set.union (union_pred_items a) (union_pred_items b)

let rec union_reads = function
  | Stmt.Read x -> Item.Set.singleton x
  | Stmt.Update (x, e) -> Item.Set.add x (union_expr_items e)
  | Stmt.Assign (_, e) -> union_expr_items e
  | Stmt.If (c, ss1, ss2) ->
    Item.Set.union (union_pred_items c)
      (Item.Set.union (union_reads_seq ss1) (union_reads_seq ss2))

and union_reads_seq ss =
  List.fold_left (fun acc s -> Item.Set.union acc (union_reads s)) Item.Set.empty ss

let rec union_writes = function
  | Stmt.Read _ -> Item.Set.empty
  | Stmt.Update (x, _) | Stmt.Assign (x, _) -> Item.Set.singleton x
  | Stmt.If (_, ss1, ss2) -> Item.Set.union (union_writes_seq ss1) (union_writes_seq ss2)

and union_writes_seq ss =
  List.fold_left (fun acc s -> Item.Set.union acc (union_writes s)) Item.Set.empty ss

(* Programs with [If]s nested up to three deep, over every expression
   and predicate constructor, blind writes included. Each update writes
   a fresh item "w<k>", so no path updates an item twice; reads draw
   from a pool that holds the written items too. *)
let nested_program_gen =
  let open QCheck.Gen in
  let pool = [ "a"; "b"; "c"; "w0"; "w1"; "w2"; "w3" ] in
  let leaf =
    oneof
      [
        map (fun n -> Expr.Const n) (int_range (-3) 3);
        map (fun x -> Expr.Item x) (oneofl pool);
        return (Expr.Param "p");
      ]
  in
  let binary =
    oneofl
      [
        (fun a b -> Expr.Add (a, b));
        (fun a b -> Expr.Sub (a, b));
        (fun a b -> Expr.Mul (a, b));
        (fun a b -> Expr.Div (a, b));
        (fun a b -> Expr.Mod (a, b));
        (fun a b -> Expr.Min (a, b));
        (fun a b -> Expr.Max (a, b));
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (2, leaf);
          (1, map (fun e -> Expr.Neg e) sub);
          (3, map3 (fun op a b -> op a b) binary sub sub);
        ]
  in
  let compare_op =
    oneofl
      [
        (fun a b -> Pred.Eq (a, b));
        (fun a b -> Pred.Ne (a, b));
        (fun a b -> Pred.Lt (a, b));
        (fun a b -> Pred.Le (a, b));
        (fun a b -> Pred.Gt (a, b));
        (fun a b -> Pred.Ge (a, b));
      ]
  in
  let rec pred depth =
    let atom = map3 (fun op a b -> op a b) compare_op (expr 2) (expr 2) in
    if depth = 0 then frequency [ (1, oneofl [ Pred.True; Pred.False ]); (4, atom) ]
    else
      let sub = pred (depth - 1) in
      frequency
        [
          (3, atom);
          (1, map (fun q -> Pred.Not q) sub);
          (1, map2 (fun a b -> Pred.And (a, b)) sub sub);
          (1, map2 (fun a b -> Pred.Or (a, b)) sub sub);
        ]
  in
  let rec stmts depth = list_size (int_range 0 3) (stmt depth)
  and stmt depth =
    let simple =
      oneof
        [
          map (fun x -> Stmt.Read x) (oneofl pool);
          map (fun e -> Stmt.Update ("", e)) (expr 2);
          map (fun e -> Stmt.Assign ("", e)) (expr 2);
        ]
    in
    if depth = 0 then simple
    else
      frequency
        [
          (2, simple);
          ( 1,
            map3
              (fun c a b -> Stmt.If (c, a, b))
              (pred 2)
              (stmts (depth - 1))
              (stmts (depth - 1)) );
        ]
  in
  let number body =
    let k = ref 0 in
    let fresh () =
      let x = "w" ^ string_of_int !k in
      incr k;
      x
    in
    let rec go = function
      | Stmt.Update (_, e) -> Stmt.Update (fresh (), e)
      | Stmt.Assign (_, e) -> Stmt.Assign (fresh (), e)
      | Stmt.If (c, ss1, ss2) ->
        let ss1 = List.map go ss1 in
        Stmt.If (c, ss1, List.map go ss2)
      | Stmt.Read _ as s -> s
    in
    List.map go body
  in
  map
    (fun body -> Program.make ~name:"N" ~params:[ ("p", 1) ] (number body))
    (list_size (int_range 1 4) (stmt 3))

(* The accumulated sets against the union-built reference: per program,
   per statement, and added to a non-empty accumulator. *)
let prop_accumulated_sets =
  QCheck.Test.make ~count:1000 ~name:"Program.readset/writeset = union-built reference"
    (QCheck.make ~print:(Format.asprintf "%a" Program.pp_full) nested_program_gen)
    (fun p ->
      let body = p.Program.body in
      let acc = Item.Set.of_names [ "a"; "w1"; "z" ] in
      Item.Set.equal (Program.readset p) (union_reads_seq body)
      && Item.Set.equal (Program.writeset p) (union_writes_seq body)
      && Item.Set.equal (Program.add_readset p acc) (Item.Set.union acc (union_reads_seq body))
      && Item.Set.equal (Program.add_writeset p acc) (Item.Set.union acc (union_writes_seq body))
      && List.for_all
           (fun s ->
             Item.Set.equal (Stmt.read_items s) (union_reads s)
             && Item.Set.equal (Stmt.write_items s) (union_writes s))
           body)

(* ------------------------------------------------------------------ *)
(* Interpreter: the paper's H1 example, fixes, dynamic sets *)

let test_h1_augmented_states () =
  (* H1 = s0 B1 s1 G2 s2 with s1 = {x=1;y=12;z=2}, s2 = {x=0;y=12;z=2}. *)
  let s1 = Interp.apply Ex.h1_s0 Ex.h1_b1 in
  let s2 = Interp.apply s1 Ex.h1_g2 in
  check G.state "s1" (State.of_list [ ("x", 1); ("y", 12); ("z", 2) ]) s1;
  check G.state "s2" (State.of_list [ ("x", 0); ("y", 12); ("z", 2) ]) s2

let test_h1_swap_without_fix_differs () =
  (* H2 = s0 G2 s3 B1 s3': x reaches 0 first, so B1's guard fails and y
     keeps its old value — a different final state. *)
  let s3 = Interp.apply Ex.h1_s0 Ex.h1_g2 in
  let s_end = Interp.apply s3 Ex.h1_b1 in
  check G.state "different final state"
    (State.of_list [ ("x", 0); ("y", 7); ("z", 2) ])
    s_end

let test_h1_swap_with_fix_matches () =
  (* H3 = s0 G2 s3 B1^{x} s2: pinning x at the originally-read value 1
     restores final-state equivalence. *)
  let s3 = Interp.apply Ex.h1_s0 Ex.h1_g2 in
  let fix = Fix.of_list [ ("x", 1) ] in
  let s_end = Interp.apply ~fix s3 Ex.h1_b1 in
  check G.state "same final state as H1" (State.of_list [ ("x", 0); ("y", 12); ("z", 2) ]) s_end

let test_fix_does_not_mask_own_writes () =
  (* A read after the transaction's own update must see the local write
     even when the item is pinned. *)
  let p =
    Program.make ~name:"t"
      [
        Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1));
        Stmt.Update ("y", Expr.Add (Expr.Item "y", Expr.Item "x"));
      ]
  in
  let s0 = State.of_list [ ("x", 10); ("y", 0) ] in
  let fix = Fix.of_list [ ("x", 100) ] in
  let after = Interp.apply ~fix s0 p in
  (* x := 100+1 = 101 (pinned pre-state read); y := 0 + 101 (local read). *)
  check G.state "fix + local write" (State.of_list [ ("x", 101); ("y", 101) ]) after

let test_dynamic_sets_follow_taken_branch () =
  let r = Interp.run Ex.h1_s0 Ex.h1_b1 in
  check G.item_set "dyn reads on taken branch" (Item.Set.of_names [ "x"; "y"; "z" ])
    (Interp.dynamic_readset r);
  check G.item_set "dyn writes on taken branch" (Item.Set.of_names [ "y" ])
    (Interp.dynamic_writeset r);
  let s0' = State.of_list [ ("x", 0); ("y", 7); ("z", 2) ] in
  let r' = Interp.run s0' Ex.h1_b1 in
  check G.item_set "dyn writes on untaken branch" Item.Set.empty (Interp.dynamic_writeset r')

let test_before_images () =
  let r = Interp.run Ex.h1_s0 Ex.h1_b1 in
  (match r.Interp.writes with
  | [ ("y", before, after) ] ->
    checki "before image" 7 before;
    checki "written value" 12 after
  | _ -> Alcotest.fail "expected exactly one write of y");
  check G.state "before state kept" Ex.h1_s0 r.Interp.before

let prop_dynamic_subset_static =
  QCheck.Test.make ~count:300 ~name:"dynamic read/write sets ⊆ static sets"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.program_gen ~name:"P")))
    (fun (s0, p) ->
      let r = Interp.run s0 p in
      Item.Set.subset (Interp.dynamic_readset r) (Program.readset p)
      && Item.Set.subset (Interp.dynamic_writeset r) (Program.writeset p)
      && Item.Set.subset (Interp.dynamic_writeset r) (Interp.dynamic_readset r))

let prop_fix_at_before_state_is_identity =
  QCheck.Test.make ~count:300 ~name:"fix pinned at before-state values changes nothing"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.program_gen ~name:"P")))
    (fun (s0, p) ->
      let fix = Fix.of_state (Program.readset p) s0 in
      State.equal (Interp.apply s0 p) (Interp.apply ~fix s0 p))

let prop_untouched_items_unchanged =
  QCheck.Test.make ~count:300 ~name:"items outside the writeset never change"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.program_gen ~name:"P")))
    (fun (s0, p) ->
      let after = Interp.apply s0 p in
      let untouched = Item.Set.diff (State.items s0) (Program.writeset p) in
      Item.Set.for_all (fun x -> State.get s0 x = State.get after x) untouched)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_additive_delta () =
  let d1 = Analysis.additive_delta "x" Expr.(Add (Item "x", Const 5)) in
  checkb "x + 5" true (d1 = Some (Expr.Const 5));
  let d2 = Analysis.additive_delta "x" Expr.(Add (Const 5, Item "x")) in
  checkb "5 + x" true (d2 = Some (Expr.Const 5));
  let d3 = Analysis.additive_delta "x" Expr.(Sub (Item "x", Item "y")) in
  checkb "x - y" true (d3 = Some (Expr.Neg (Expr.Item "y")));
  checkb "x * 2 is not additive" true
    (Analysis.additive_delta "x" Expr.(Mul (Item "x", Const 2)) = None);
  checkb "x + x is not additive" true
    (Analysis.additive_delta "x" Expr.(Add (Item "x", Item "x")) = None);
  checkb "y + 5 is not additive in x" true
    (Analysis.additive_delta "x" Expr.(Add (Item "y", Const 5)) = None)

let test_update_sites () =
  let sites = Analysis.update_sites Ex.h4_b1 in
  checki "two sites" 2 (List.length sites);
  List.iter
    (fun s -> check G.item_set "guard is u" (Item.Set.of_names [ "u" ]) s.Analysis.guards)
    sites

let test_essential_reads () =
  (* G3 = x += 10, z += 30: with x exempt, only z remains essential. *)
  check G.item_set "G3 exempting x" (Item.Set.of_names [ "z" ])
    (Analysis.essential_reads ~self_additive:(Item.Set.of_names [ "x" ]) Ex.h4_g3);
  check G.item_set "G3 exempting nothing" (Item.Set.of_names [ "x"; "z" ])
    (Analysis.essential_reads ~self_additive:Item.Set.empty Ex.h4_g3);
  (* B1: guard u is always essential; y's operand too; x exempt. *)
  check G.item_set "B1 exempting x" (Item.Set.of_names [ "u"; "y" ])
    (Analysis.essential_reads ~self_additive:(Item.Set.of_names [ "x" ]) Ex.h4_b1)

let test_is_additive_program () =
  checkb "G3 additive" true (Analysis.is_additive_program Ex.h4_g3);
  (* Guards do not disqualify a program: B1's updates are both additive
     deltas even though they sit under "if u > 10". *)
  checkb "B1 additive despite guard" true (Analysis.is_additive_program Ex.h4_b1);
  checkb "T1 not additive (multiplicative branch)" true
    (Analysis.is_additive_program Ex.h5_t1 = false);
  (* A delta reading an item the program writes is disqualified. *)
  let cross =
    Program.make ~name:"c"
      [
        Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Item "y"));
        Stmt.Update ("y", Expr.Add (Expr.Item "y", Expr.Const 1));
      ]
  in
  checkb "cross-delta not additive" true (Analysis.is_additive_program cross = false)

(* ------------------------------------------------------------------ *)
(* Semantics: can-follow, can-precede on the paper's examples *)

let thy = Semantics.default_theory

let test_can_follow () =
  (* B1 can follow G2 in H4: B1 writes {x,y}, G2 reads {u}. *)
  checkb "B1 can follow G2" true (Semantics.can_follow_one Ex.h4_b1 Ex.h4_g2);
  (* G2 cannot follow B1: G2 writes u, B1 reads u. *)
  checkb "G2 cannot follow B1" false (Semantics.can_follow_one Ex.h4_g2 Ex.h4_b1);
  checkb "read-only follows anything" true
    (Semantics.can_follow (Program.make ~name:"r" [ Stmt.Read "x" ]) [ Ex.h4_b1; Ex.h4_g2 ])

let test_h4_can_precede () =
  (* The paper's motivating case: G3 can precede B1^{u}. *)
  checkb "G3 can precede B1^{u}" true
    (Semantics.can_precede ~theory:thy ~fix_domain:(Item.Set.of_names [ "u" ]) ~mover:Ex.h4_g3
       ~target:Ex.h4_b1);
  (* And the oracle agrees over an exhaustive small domain. *)
  checkb "oracle agrees" true
    (Oracle.can_precede ~items:[ "u"; "x"; "y"; "z" ] ~values:[ -1; 0; 11; 30 ]
       ~fix_domain:(Item.Set.of_names [ "u" ]) ~mover:Ex.h4_g3 ~target:Ex.h4_b1)

let test_h4_g2_does_not_commute_with_b1 () =
  (* G2 writes the guard item u, so it must not commute through B1. *)
  checkb "static detector refuses" false
    (Semantics.commutes_backward_through ~theory:thy ~mover:Ex.h4_g2 ~target:Ex.h4_b1);
  checkb "oracle refuses too" false
    (Oracle.commutes_backward_through ~items:[ "u"; "x"; "y" ] ~values:[ 0; 11; 30 ]
       ~mover:Ex.h4_g2 ~target:Ex.h4_b1)

let test_h5_fix_interference () =
  (* T3 commutes backward through T1 on even x (the paper works over
     reals; integer division restricts the witness domain), but NOT
     through T1^{y}: the fix interferes with commutativity. *)
  let items = [ "x"; "y" ] in
  checkb "oracle: T3 commutes through T1 on even domain" true
    (Oracle.commutes_backward_through ~items ~values:[ 0; 4; 202; 400 ] ~mover:Ex.h5_t3
       ~target:Ex.h5_t1);
  checkb "oracle: T3 does not commute through T1^{y}" false
    (Oracle.can_precede ~items ~values:[ 0; 4; 202; 400 ]
       ~fix_domain:(Item.Set.of_names [ "y" ]) ~mover:Ex.h5_t3 ~target:Ex.h5_t1);
  (* The static detector is conservative here: it refuses both. *)
  checkb "static refuses (conservative)" false
    (Semantics.commutes_backward_through ~theory:thy ~mover:Ex.h5_t3 ~target:Ex.h5_t1)

let test_additive_pair_can_precede () =
  let inc name delta =
    Program.make ~name [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const delta)) ]
  in
  checkb "two increments commute" true
    (Semantics.commutes_backward_through ~theory:thy ~mover:(inc "A" 3) ~target:(inc "B" 5));
  checkb "increment vs double do not" false
    (Semantics.commutes_backward_through ~theory:thy ~mover:(inc "A" 3)
       ~target:(Program.make ~name:"B" [ Stmt.Update ("x", Expr.Mul (Expr.Item "x", Expr.Const 2)) ]))

let test_declared_theory () =
  let declared = { Semantics.declared_can_precede = [ ("h5-t3", "h5-t1") ] } in
  (* A declaration overrides the conservative static answer... *)
  checkb "declared pair accepted" true
    (Semantics.commutes_backward_through ~theory:declared ~mover:Ex.h5_t3 ~target:Ex.h5_t1);
  (* ... but only within Property 1: a fix inside the target's writeset is
     refused. *)
  checkb "declaration limited by Property 1" false
    (Semantics.can_precede ~theory:declared ~fix_domain:(Item.Set.of_names [ "x" ])
       ~mover:Ex.h5_t3 ~target:Ex.h5_t1)

let prop_static_can_precede_sound =
  QCheck.Test.make ~count:150 ~name:"static can-precede ⇒ oracle can-precede (soundness)"
    G.arbitrary_program_pair
    (fun (mover, target) ->
      let fix_domain = Program.read_only_items target in
      let static = Semantics.can_precede ~theory:thy ~fix_domain ~mover ~target in
      QCheck.assume static;
      Oracle.can_precede ~items:G.small_items ~values:[ -2; 0; 1; 3 ] ~fix_domain ~mover ~target)

let prop_static_commute_sound =
  QCheck.Test.make ~count:150 ~name:"static commutes-backward ⇒ oracle commutes (soundness)"
    G.arbitrary_program_pair
    (fun (mover, target) ->
      let static = Semantics.commutes_backward_through ~theory:thy ~mover ~target in
      QCheck.assume static;
      Oracle.commutes_backward_through ~items:G.small_items ~values:[ -2; 0; 1; 3 ] ~mover ~target)

let prop_positive_can_precede_satisfies_property1 =
  QCheck.Test.make ~count:300 ~name:"positive static can-precede answers satisfy Property 1"
    G.arbitrary_program_pair
    (fun (mover, target) ->
      let fix_domain = Program.read_only_items target in
      let static = Semantics.can_precede ~theory:thy ~fix_domain ~mover ~target in
      QCheck.assume static;
      Semantics.property1 ~fix_domain ~mover ~target)

(* ------------------------------------------------------------------ *)
(* Compensation *)

let test_derive_additive_compensator () =
  let p =
    Program.make ~name:"dep" ~params:[ ("amt", 30) ]
      [
        Stmt.Update ("a", Expr.Add (Expr.Item "a", Expr.Param "amt"));
        Stmt.Update ("l", Expr.Add (Expr.Item "l", Expr.Param "amt"));
      ]
  in
  (match Compensation.derive p with
  | None -> Alcotest.fail "expected a compensator"
  | Some comp ->
    let s0 = State.of_list [ ("a", 100); ("l", 500) ] in
    let round_trip = Interp.apply (Interp.apply s0 p) comp in
    check G.state "T⁻¹(T(s)) = s" s0 round_trip);
  checkb "derivable" true (Compensation.derivable p)

let test_no_compensator_for_multiplicative () =
  let p = Program.make ~name:"m" [ Stmt.Update ("x", Expr.Mul (Expr.Item "x", Expr.Const 2)) ] in
  checkb "not derivable" true (Compensation.derive p = None)

let test_no_compensator_when_guard_reads_writeset () =
  (* The guard reads x, which the program writes: replaying the guard after
     the update can take the other branch, so no compensator is derived. *)
  let p =
    Program.make ~name:"g"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "x", Expr.Const 0),
            [ Stmt.Update ("x", Expr.Sub (Expr.Item "x", Expr.Const 1)) ],
            [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1)) ] );
      ]
  in
  checkb "not derivable" true (Compensation.derive p = None)

let test_fixed_compensation_lemma4 () =
  (* Lemma 4: T^{(-1,F)} inverts T^F when F ∩ writeset = ∅. Guarded
     additive program with foreign guard; pin the guard item. *)
  let p =
    Program.make ~name:"g"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "u", Expr.Const 0),
            [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 7)) ],
            [] );
      ]
  in
  match Compensation.derive p with
  | None -> Alcotest.fail "expected a compensator"
  | Some comp ->
    let fix = Fix.of_list [ ("u", 5) ] in
    checkb "oracle: fixed compensation round-trips" true
      (Oracle.compensates ~items:[ "u"; "x" ] ~values:[ -3; 0; 2 ] ~fix ~of_:p comp)

let prop_derived_compensators_invert =
  QCheck.Test.make ~count:200 ~name:"derived compensators invert (qcheck)"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.program_gen ~name:"P")))
    (fun (s0, p) ->
      match Compensation.derive p with
      | None -> QCheck.assume_fail ()
      | Some comp -> State.equal s0 (Interp.apply (Interp.apply s0 p) comp))

(* ------------------------------------------------------------------ *)
(* Misc substrate coverage: state, fixes, statements *)

let test_state_operations () =
  let s = State.of_list [ ("a", 1); ("b", 2) ] in
  checki "get bound" 2 (State.get s "b");
  checki "missing items read as 0" 0 (State.get s "zzz");
  let s' = State.set s "a" 9 in
  checki "set" 9 (State.get s' "a");
  checki "persistence: original untouched" 1 (State.get s "a");
  check G.state "restrict" (State.of_list [ ("a", 1) ]) (State.restrict s (Item.Set.of_names [ "a" ]));
  checkb "equal treats missing as 0" true
    (State.equal (State.of_list [ ("x", 0) ]) State.empty);
  let merged = State.merge_updates s s' (Item.Set.of_names [ "a" ]) in
  check G.state "merge_updates" (State.of_list [ ("a", 9); ("b", 2) ]) merged

(* States over a 6-item universe where each item is absent, explicitly
   bound to 0 or bound to a small value, so equal, one-sided and
   0-versus-absent bindings all occur often. *)
let sparse_state_gen =
  let open QCheck.Gen in
  let binding x = map (Option.map (fun v -> (x, v))) (opt ~ratio:0.7 (int_range (-2) 2)) in
  map
    (fun bindings -> State.of_list (List.filter_map Fun.id bindings))
    (flatten_l (List.map binding [ "a"; "b"; "c"; "d"; "e"; "f" ]))

let prop_state_diff =
  QCheck.Test.make ~count:2000 ~name:"State.diff = filter of the union of bound items"
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a / %a" State.pp a State.pp b)
       (QCheck.Gen.pair sparse_state_gen sparse_state_gen))
    (fun (a, b) ->
      let reference =
        Item.Set.filter
          (fun x -> State.get a x <> State.get b x)
          (Item.Set.union (State.items a) (State.items b))
      in
      Item.Set.equal (State.diff a b) reference && Item.Set.equal (State.diff b a) reference)

(* [State.restrict] against the filter of the whole state it replaced:
   the same bindings, explicit zeros kept, and nothing added for an item
   of the set that the state leaves unbound ("g" and "h" never are). *)
let prop_state_restrict =
  let items_gen =
    QCheck.Gen.(
      map Item.Set.of_list
        (list_size (int_range 0 8) (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])))
  in
  QCheck.Test.make ~count:2000 ~name:"State.restrict = filter of the bindings"
    (QCheck.make
       ~print:(fun (s, items) -> Format.asprintf "%a / %a" State.pp s Item.Set.pp items)
       (QCheck.Gen.pair sparse_state_gen items_gen))
    (fun (s, items) ->
      State.to_list (State.restrict s items)
      = List.filter (fun (x, _) -> Item.Set.mem x items) (State.to_list s))

(* [State.exchange] against the two walks it replaces: it returns what
   [get] returned and leaves the bindings [set] leaves, explicit zeros
   included, for bound items and for "g" and "h", which no state binds. *)
let prop_state_exchange =
  QCheck.Test.make ~count:2000 ~name:"State.exchange = get then set"
    (QCheck.make
       ~print:(fun (s, (x, v)) -> Format.asprintf "%a / %s := %d" State.pp s x v)
       QCheck.Gen.(
         pair sparse_state_gen
           (pair (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]) (int_range (-2) 2))))
    (fun (s, (x, v)) ->
      let before, s' = State.exchange s x v in
      before = State.get s x && State.to_list s' = State.to_list (State.set s x v))

(* [State.equal] against the filtered [Item.Map.equal] it replaced. The
   second state mostly repeats the first one's values, writing a 0 as
   absent or as an explicit zero at random, so equal pairs, zeros on
   either side and single differences all occur often. *)
let prop_state_equal =
  let near s =
    let open QCheck.Gen in
    let binding x =
      let v = State.get s x in
      let same = if v = 0 then oneofl [ None; Some (x, 0) ] else return (Some (x, v)) in
      frequency [ (9, same); (1, map (Option.map (fun v -> (x, v))) (opt (int_range (-2) 2))) ]
    in
    map
      (fun bindings -> State.of_list (List.filter_map Fun.id bindings))
      (flatten_l (List.map binding [ "a"; "b"; "c"; "d"; "e"; "f" ]))
  in
  let reference a b =
    let nonzero s =
      Item.Map.filter (fun _ v -> v <> 0) (Item.Map.of_seq (List.to_seq (State.to_list s)))
    in
    Item.Map.equal ( = ) (nonzero a) (nonzero b)
  in
  QCheck.Test.make ~count:2000 ~name:"State.equal = filtered Item.Map.equal"
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a / %a" State.pp a State.pp b)
       QCheck.Gen.(sparse_state_gen >>= fun a -> map (fun b -> (a, b)) (near a)))
    (fun (a, b) ->
      let want = reference a b in
      State.equal a b = want && State.equal b a = want && State.equal a a)

let test_fix_operations () =
  let f = Fix.of_list [ ("a", 1) ] in
  checkb "mem" true (Fix.mem f "a");
  checkb "find" true (Fix.find f "b" = None);
  (* earliest pin is authoritative *)
  let f' = Fix.add f "a" 99 in
  checkb "add keeps original" true (Fix.find f' "a" = Some 1);
  let g = Fix.of_list [ ("a", 42); ("c", 3) ] in
  let u = Fix.union f g in
  checkb "union left-biased" true (Fix.find u "a" = Some 1);
  checkb "union adds" true (Fix.find u "c" = Some 3);
  check G.item_set "domain" (Item.Set.of_names [ "a"; "c" ]) (Fix.domain u);
  checkb "of_state" true
    (Fix.equal
       (Fix.of_state (Item.Set.of_names [ "x" ]) (State.of_list [ ("x", 5) ]))
       (Fix.of_list [ ("x", 5) ]))

let test_stmt_must_write () =
  let guarded =
    Stmt.If
      ( Pred.Gt (Expr.Item "g", Expr.Const 0),
        [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1)) ],
        [] )
  in
  check G.item_set "may-write includes x" (Item.Set.of_names [ "x" ]) (Stmt.write_items guarded);
  check G.item_set "must-write is empty" Item.Set.empty (Stmt.must_write_items guarded);
  let both =
    Stmt.If
      ( Pred.Gt (Expr.Item "g", Expr.Const 0),
        [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 1)) ],
        [ Stmt.Update ("x", Expr.Sub (Expr.Item "x", Expr.Const 1)) ] )
  in
  check G.item_set "must-write when both branches write" (Item.Set.of_names [ "x" ])
    (Stmt.must_write_items both)

let test_program_rename_and_params () =
  let p = Program.make ~name:"orig" ~params:[ ("p", 5) ] [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Param "p")) ] in
  let q = Program.rename p "copy" in
  Alcotest.check Alcotest.string "renamed" "copy" q.Program.name;
  checki "param lookup" 5 (Program.param q "p");
  Alcotest.check_raises "unbound param lookup"
    (Program.Ill_formed "copy: unbound parameter $zzz") (fun () -> ignore (Program.param q "zzz"))

let test_read_statement_recorded_once () =
  let p = Program.make ~name:"t" [ Stmt.Read "a"; Stmt.Read "a"; Stmt.Read "b" ] in
  let r = Interp.run (State.of_list [ ("a", 1); ("b", 2) ]) p in
  checki "deduplicated reads" 2 (List.length r.Interp.reads);
  checkb "read values recorded" true (Interp.read_value r "a" = Some 1)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_txn"
    [
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "total division" `Quick test_expr_total_division;
          Alcotest.test_case "items" `Quick test_expr_items;
          Alcotest.test_case "pred eval" `Quick test_pred_eval;
        ] );
      ( "program",
        [
          Alcotest.test_case "rejects double update" `Quick
            test_program_validation_rejects_double_update;
          Alcotest.test_case "accepts branch updates" `Quick
            test_program_validation_accepts_branch_updates;
          Alcotest.test_case "rejects unbound param" `Quick
            test_program_validation_rejects_unbound_param;
          Alcotest.test_case "static sets" `Quick test_program_static_sets;
        ]
        @ qsuite [ prop_no_blind_writes; prop_accumulated_sets ] );
      ( "interp",
        [
          Alcotest.test_case "H1 augmented states" `Quick test_h1_augmented_states;
          Alcotest.test_case "H1 swap w/o fix differs" `Quick test_h1_swap_without_fix_differs;
          Alcotest.test_case "H1 swap with fix matches" `Quick test_h1_swap_with_fix_matches;
          Alcotest.test_case "fix vs own writes" `Quick test_fix_does_not_mask_own_writes;
          Alcotest.test_case "dynamic sets per branch" `Quick
            test_dynamic_sets_follow_taken_branch;
          Alcotest.test_case "before images" `Quick test_before_images;
        ]
        @ qsuite
            [
              prop_dynamic_subset_static;
              prop_fix_at_before_state_is_identity;
              prop_untouched_items_unchanged;
            ] );
      ( "analysis",
        [
          Alcotest.test_case "additive delta" `Quick test_additive_delta;
          Alcotest.test_case "update sites" `Quick test_update_sites;
          Alcotest.test_case "essential reads" `Quick test_essential_reads;
          Alcotest.test_case "is_additive_program" `Quick test_is_additive_program;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "can-follow" `Quick test_can_follow;
          Alcotest.test_case "H4: G3 can precede B1^{u}" `Quick test_h4_can_precede;
          Alcotest.test_case "H4: G2 / B1 do not commute" `Quick
            test_h4_g2_does_not_commute_with_b1;
          Alcotest.test_case "H5: fix interferes with commutativity" `Quick
            test_h5_fix_interference;
          Alcotest.test_case "additive pairs" `Quick test_additive_pair_can_precede;
          Alcotest.test_case "declared theory" `Quick test_declared_theory;
        ]
        @ qsuite
            [
              prop_static_can_precede_sound;
              prop_static_commute_sound;
              prop_positive_can_precede_satisfies_property1;
            ] );
      ( "misc",
        [
          Alcotest.test_case "state operations" `Quick test_state_operations;
          Alcotest.test_case "fix operations" `Quick test_fix_operations;
          Alcotest.test_case "must-write analysis" `Quick test_stmt_must_write;
          Alcotest.test_case "rename and params" `Quick test_program_rename_and_params;
          Alcotest.test_case "read dedup" `Quick test_read_statement_recorded_once;
        ]
        @ qsuite [ prop_state_diff; prop_state_restrict; prop_state_exchange; prop_state_equal ]
      );
      ( "compensation",
        [
          Alcotest.test_case "additive compensator" `Quick test_derive_additive_compensator;
          Alcotest.test_case "multiplicative has none" `Quick
            test_no_compensator_for_multiplicative;
          Alcotest.test_case "self-guard has none" `Quick
            test_no_compensator_when_guard_reads_writeset;
          Alcotest.test_case "Lemma 4 fixed compensation" `Quick test_fixed_compensation_lemma4;
        ]
        @ qsuite [ prop_derived_compensators_invert ] );
    ]
