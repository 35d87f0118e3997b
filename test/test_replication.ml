(* Tests for the replication layer: event queue, cost tallies, the merge
   and reprocess protocols on constructed scenarios, and the multi-node
   simulator (Strategy 1 anomaly vs Strategy 2 safety, serializability
   ground truth, protocol cost comparison). *)

open Repro_txn
open Repro_history
open Repro_replication
module Engine = Repro_db.Engine
module Precedence = Repro_precedence.Precedence
module Backout = Repro_precedence.Backout
module Summary = Repro_precedence.Summary
module Digraph = Test_support.Digraph
module Obs = Repro_obs.Obs
module Report = Repro_obs.Report
module Banking = Repro_workload.Banking
module Rng = Repro_workload.Rng
module Sim = Repro_service.Sim
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_state = Alcotest.check G.state

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_orders_by_key () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let order = List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?") in
  Alcotest.check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c" ] order;
  checkb "now empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?") in
  Alcotest.check (Alcotest.list Alcotest.string) "insertion order on ties"
    [ "first"; "second"; "third" ] order

let prop_pqueue_sorts =
  QCheck.Test.make ~count:200 ~name:"pqueue pops keys in nondecreasing order"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 50) (map (fun n -> float_of_int n /. 10.0) (int_bound 1000))))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k ()) keys;
      let rec drain prev =
        match Pqueue.pop q with
        | None -> true
        | Some (k, ()) -> k >= prev && drain k
      in
      drain neg_infinity)

(* The queue against a list model kept sorted by (key, insertion stamp),
   where [replace_min] is a pop then a push with a fresh stamp. Keys come
   from five values, so most pops break a tie; every value is the index
   of the operation that pushed it, so a wrong tie order shows up as a
   wrong value. [ops] bounds the length of a case. *)
type pq_op = Push of float | Pop | Min | Replace of float

let pqueue_model_test ~count ~name ~ops:(lo, hi) =
  let key = QCheck.Gen.(map (fun n -> float_of_int n /. 2.0) (int_bound 4)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Push k) key);
          (2, return Pop);
          (1, return Min);
          (3, map (fun k -> Replace k) key);
        ])
  in
  let print = function
    | Push k -> Printf.sprintf "push %g" k
    | Pop -> "pop"
    | Min -> "min"
    | Replace k -> Printf.sprintf "replace_min %g" k
  in
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range lo hi) op))
    (fun ops ->
      let q = Pqueue.create () in
      (* (key, stamp, value), ascending by (key, stamp) *)
      let model = ref [] and stamp = ref 0 in
      let insert k v =
        let s = !stamp in
        incr stamp;
        let rec go = function
          | ((k', s', _) as e) :: rest when k' < k || (k' = k && s' < s) -> e :: go rest
          | l -> (k, s, v) :: l
        in
        model := go !model
      in
      let model_min () = match !model with [] -> None | (k, _, v) :: _ -> Some (k, v) in
      let model_pop () =
        let m = model_min () in
        (match !model with [] -> () | _ :: rest -> model := rest);
        m
      in
      let same what expected got =
        if expected <> got then
          QCheck.Test.fail_reportf "%s: expected %s, got %s" what
            (match expected with None -> "none" | Some (k, v) -> Printf.sprintf "(%g, %d)" k v)
            (match got with None -> "none" | Some (k, v) -> Printf.sprintf "(%g, %d)" k v)
      in
      List.iteri
        (fun v op ->
          (match op with
          | Push k ->
              Pqueue.push q k v;
              insert k v
          | Pop -> same "pop" (model_pop ()) (Pqueue.pop q)
          | Min -> same "min" (model_min ()) (Pqueue.min q)
          | Replace k ->
              Pqueue.replace_min q k v;
              ignore (model_pop ());
              insert k v);
          if Pqueue.size q <> List.length !model then QCheck.Test.fail_report "size";
          if Pqueue.is_empty q <> (!model = []) then QCheck.Test.fail_report "is_empty";
          if Pqueue.peek_key q <> Option.map fst (model_min ()) then
            QCheck.Test.fail_report "peek_key")
        ops;
      (* Drain: everything left comes out in model order. *)
      let rec drain () =
        let m = model_pop () in
        same "drain" m (Pqueue.pop q);
        if m <> None then drain ()
      in
      drain ();
      true)

let prop_pqueue_matches_model =
  pqueue_model_test ~count:300 ~name:"pqueue = sorted-list model (push, pop, min, replace_min)"
    ~ops:(0, 200)

(* Long cases: the queue grows to a few hundred entries, so sifts cross
   five or more levels of the 4-ary heap. *)
let prop_pqueue_matches_model_deep =
  pqueue_model_test ~count:100 ~name:"pqueue = sorted-list model, 1,000-3,000 ops"
    ~ops:(1_000, 3_000)

(* ------------------------------------------------------------------ *)
(* Protocol: constructed scenarios *)

let inc name item delta =
  Program.make ~name ~ttype:"inc" [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Const delta)) ]

let dbl name item =
  Program.make ~name ~ttype:"dbl" [ Stmt.Update (item, Expr.Mul (Expr.Item item, Expr.Const 2)) ]

let s0 = State.of_list [ ("x", 10); ("y", 20); ("z", 30) ]

(* A merge against a fresh base: the engine, the report, and the merged
   history its splice expands to. *)
let run_merge ?(config = Protocol.default_merge_config) ~tentative ~base () =
  let engine = Engine.create s0 in
  let base_history =
    Protocol.index_history
      (List.map (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p }) base)
  in
  let report =
    Protocol.merge ~config ~params:Cost.default_params ~base:engine ~base_history ~origin:s0
      ~tentative:(History.of_programs tentative)
  in
  (engine, report, Protocol.merged_history base_history report.Protocol.splice)

let test_merge_conflict_free () =
  let engine, report, merged = run_merge ~tentative:[ inc "Tm1" "x" 5 ] ~base:[ inc "Tb1" "y" 7 ] () in
  checkb "nothing backed out" true (Names.Set.is_empty report.Protocol.backed_out);
  check_state "both effects present"
    (State.of_list [ ("x", 15); ("y", 27); ("z", 30) ])
    (Engine.state engine);
  Alcotest.check (Alcotest.list Alcotest.string) "merged logical order" [ "Tb1"; "Tm1" ]
    (List.map (fun (bt : Protocol.base_txn) -> bt.Protocol.program.Program.name) merged)

let test_merge_write_write_conflict_backs_out () =
  (* Both histories write x non-commutatively: a two-cycle; the tentative
     side is backed out and re-executed on the merged state. *)
  let engine, report, _ = run_merge ~tentative:[ dbl "Tm1" "x" ] ~base:[ dbl "Tb1" "x" ] () in
  checkb "Tm1 backed out" true (Names.Set.mem "Tm1" report.Protocol.backed_out);
  (* Tb1: x = 20; re-executed Tm1: x = 40. *)
  checki "re-executed on top" 40 (State.get (Engine.state engine) "x");
  checkb "reported re-executed" true
    (List.exists
       (fun (r : Protocol.txn_report) ->
         r.Protocol.name = "Tm1" && r.Protocol.outcome = Protocol.Reexecuted)
       report.Protocol.txns)

let test_merge_additive_conflict_saved_by_algorithm2 () =
  (* Additive write-write "conflicts" still form a two-cycle in the graph
     (the paper's graph is syntactic), so the tentative increment is
     backed out and re-executed — and the re-execution composes. *)
  let engine, report, _ = run_merge ~tentative:[ inc "Tm1" "x" 5 ] ~base:[ inc "Tb1" "x" 7 ] () in
  checkb "backed out (syntactic conflict)" true (Names.Set.mem "Tm1" report.Protocol.backed_out);
  checki "increments compose" 22 (State.get (Engine.state engine) "x")

let test_merge_rejection () =
  let config =
    { Protocol.default_merge_config with Protocol.acceptance = Protocol.accept_within ~tolerance:0 }
  in
  let engine, report, _ = run_merge ~config ~tentative:[ dbl "Tm1" "x" ] ~base:[ dbl "Tb1" "x" ] () in
  checkb "rejected" true
    (List.exists
       (fun (r : Protocol.txn_report) ->
         r.Protocol.name = "Tm1" && r.Protocol.outcome = Protocol.Rejected)
       report.Protocol.txns);
  checki "only base effect remains" 20 (State.get (Engine.state engine) "x")

let test_merge_saves_affected_via_can_precede () =
  (* Paper H4 embedded in a merge: base writes u (conflicting with the
     tentative read), the tentative B1-alike must go, G3-alike is saved by
     can-precede. *)
  let tm1 =
    Program.make ~name:"Tm1" ~ttype:"guarded"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "y", Expr.Const 0),
            [ Stmt.Update ("x", Expr.Add (Expr.Item "x", Expr.Const 100)) ],
            [] );
      ]
  in
  let tm2 = inc "Tm2" "x" 10 in
  (* Tb1 updates y (which Tm1's guard reads) and reads x (which Tm1
     writes): the cross edges Tm1 -> Tb1 and Tb1 -> Tm1 form a two-cycle,
     so Tm1 must be backed out. *)
  let tb =
    Program.make ~name:"Tb1" ~ttype:"mix"
      [ Stmt.Read "x"; Stmt.Update ("y", Expr.Add (Expr.Item "y", Expr.Const 5)) ]
  in
  let engine, report, _ = run_merge ~tentative:[ tm1; tm2 ] ~base:[ tb ] () in
  checkb "Tm1 backed out" true (Names.Set.mem "Tm1" report.Protocol.backed_out);
  checkb "Tm2 saved (can-precede past fixed Tm1)" true (Names.Set.mem "Tm2" report.Protocol.saved);
  (* Base: y=25; merged Tm2: x=20; re-executed Tm1: y>0 so x+=100. *)
  check_state "final" (State.of_list [ ("x", 120); ("y", 25); ("z", 30) ]) (Engine.state engine)

let test_merge_state_equals_replay_of_merged_history () =
  let tentative =
    [ inc "Tm1" "x" 5; dbl "Tm2" "y"; inc "Tm3" "z" (-2) ]
  in
  let base = [ inc "Tb1" "y" 3; dbl "Tb2" "x" ] in
  let engine, _, merged = run_merge ~tentative ~base () in
  let replayed = Protocol.replay s0 merged in
  check_state "logical history replays to engine state" (Engine.state engine) replayed

(* A window's history, by name. *)
let window_names w = List.map (fun bt -> bt.Protocol.program.Program.name) (Window.history w)

let merging_window engine =
  Window.create ~protocol:(Window.Merging Protocol.default_merge_config)
    ~params:Cost.default_params engine

(* The report's tail, with a moved base transaction shown by position. *)
let tail_names (report : Protocol.merge_report) =
  List.map
    (function
      | Precedence.Index.Moved p -> Printf.sprintf "@%d" p
      | Precedence.Index.Added bt -> bt.Protocol.program.Program.name)
    report.Protocol.splice.Protocol.tail

(* A session that conflicts with no base transaction moves none: the
   splice starts at the base length and appends. *)
let test_splice_pure_append () =
  let engine = Engine.create s0 in
  let w = merging_window engine in
  ignore (Window.base_txn w (inc "Tb1" "x" 1));
  ignore (Window.base_txn w (dbl "Tb2" "x"));
  match Window.merge w ~origin:s0 (History.of_programs [ inc "Tm1" "y" 5 ]) with
  | None -> Alcotest.fail "merge aborted"
  | Some report ->
    checki "first = base length" 2 report.Protocol.splice.Protocol.first;
    Alcotest.(check (list string)) "tail" [ "Tm1" ] (tail_names report);
    Alcotest.(check (list string)) "history" [ "Tb1"; "Tb2"; "Tm1" ] (window_names w);
    check_state "replay" (Protocol.replay s0 (Window.history w)) (Engine.state engine)

(* Tm1 read x before Tb1 updated it, so it goes before Tb1, and Tb3
   follows Tb1 on x: the tail is Tm1 Tb1 Tb3, and the splice starts at
   the view's position 0. Under Strategy 1 the view starts after Tb0
   ([from] 1), which keeps its place. *)
let test_splice_from_view_start () =
  let engine = Engine.create s0 in
  let w = merging_window engine in
  List.iter
    (fun p -> ignore (Window.base_txn w p))
    [ inc "Tb0" "z" 1; inc "Tb1" "x" 1; inc "Tb2" "y" 1; dbl "Tb3" "x" ];
  let tm1 =
    Program.make ~name:"Tm1" ~ttype:"copy"
      [ Stmt.Update ("z", Expr.Add (Expr.Item "x", Expr.Item "z")) ]
  in
  let origin = Protocol.replay s0 (Window.history ~upto:1 w) in
  match Window.merge ~from:1 w ~origin (History.of_programs [ tm1 ]) with
  | None -> Alcotest.fail "merge aborted"
  | Some report ->
    checki "first = the view's position 0" 0 report.Protocol.splice.Protocol.first;
    Alcotest.(check (list string)) "tail" [ "Tm1"; "@0"; "@2" ] (tail_names report);
    Alcotest.(check (list string))
      "history" [ "Tb0"; "Tb2"; "Tm1"; "Tb1"; "Tb3" ] (window_names w);
    check_state "replay" (Protocol.replay s0 (Window.history w)) (Engine.state engine)

(* The protocol invariant, over random canned workloads: after a merge,
   the base engine's state equals the serial replay of the merged logical
   history from the common origin — for every algorithm and back-out
   strategy. *)
let prop_merge_state_replay =
  QCheck.Test.make ~count:150 ~name:"merge state = replay of logical history (random workloads)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let pool = Repro_workload.Gen.pool Repro_workload.Gen.default_profile in
      let origin = Repro_workload.Gen.initial_state pool rng in
      let tentative, base_h =
        Repro_workload.Gen.mobile_base_pair pool rng ~tentative_len:10 ~base_len:5
      in
      List.for_all
        (fun (algorithm, strategy) ->
          let engine = Engine.create origin in
          let base_history =
            Protocol.index_history
              (List.map
                 (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p })
                 (History.programs base_h))
          in
          let config = { Protocol.default_merge_config with Protocol.algorithm; Protocol.strategy } in
          let report =
            Protocol.merge ~config ~params:Cost.default_params ~base:engine ~base_history
              ~origin ~tentative
          in
          let replayed =
            Protocol.replay origin (Protocol.merged_history base_history report.Protocol.splice)
          in
          State.equal replayed (Engine.state engine))
        [
          (Repro_rewrite.Rewrite.Can_follow_precede, Repro_precedence.Backout.Two_cycle_then_greedy);
          (Repro_rewrite.Rewrite.Can_follow, Repro_precedence.Backout.Greedy_degree);
          (Repro_rewrite.Rewrite.Closure, Repro_precedence.Backout.Greedy_damage);
          (Repro_rewrite.Rewrite.Commute_only, Repro_precedence.Backout.All_in_cycles);
        ])

(* ------------------------------------------------------------------ *)
(* The merge plan against the whole-window oracle *)

(* A topological order of the reduced precedence graph that disturbs the
   existing base history as little as possible: base transactions are
   emitted in their original order whenever available, tentative ones only
   when an edge forces them earlier (or at the end). *)
let stable_merge_order pg ~removed =
  let g = Test_support.Scan.reduced pg ~removed in
  let nodes = Digraph.nodes g in
  let indegree = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace indegree v (List.length (Digraph.predecessors g v))) nodes;
  let better a b =
    let ta = Summary.is_tentative (Precedence.summary_of_node pg a) in
    let tb = Summary.is_tentative (Precedence.summary_of_node pg b) in
    match (ta, tb) with
    | false, true -> true
    | true, false -> false
    | _ -> a < b
  in
  let rec drain available acc remaining =
    if remaining = 0 then List.rev acc
    else
      let next =
        List.fold_left
          (fun best v ->
            match best with Some b when better b v -> best | _ -> Some v)
          None available
      in
      match next with
      | None -> invalid_arg "stable_merge_order: graph is cyclic"
      | Some v ->
        let available = List.filter (fun w -> w <> v) available in
        let newly =
          List.filter
            (fun w ->
              let d = Hashtbl.find indegree w - 1 in
              Hashtbl.replace indegree w d;
              d = 0)
            (Digraph.successors g v)
        in
        drain (available @ newly) (v :: acc) (remaining - 1)
  in
  let initial = List.filter (fun v -> Hashtbl.find indegree v = 0) nodes in
  List.map
    (fun v -> (Precedence.summary_of_node pg v).Summary.name)
    (drain initial [] (List.length nodes))

(* The forwarded items filtered by each item's last writer over the whole
   merged history. *)
let whole_history_forwarded (g : Protocol.graph_phase) ~saved ~base_history ~tentative names =
  let base_by_name =
    List.fold_left
      (fun m bt -> Names.Map.add bt.Protocol.program.Program.name bt m)
      Names.Map.empty base_history
  in
  let merged_core =
    List.map
      (fun name ->
        match Names.Map.find_opt name base_by_name with
        | Some bt -> bt
        | None ->
          {
            Protocol.program = (History.find tentative name).History.program;
            record = History.record_of g.Protocol.gp_tentative_exec name;
          })
      names
  in
  let last_writer =
    List.fold_left
      (fun acc bt ->
        Item.Set.fold
          (fun x acc -> Item.Map.add x bt.Protocol.program.Program.name acc)
          (Interp.dynamic_writeset bt.Protocol.record) acc)
      Item.Map.empty merged_core
  in
  let forwarded_items =
    Names.Set.fold
      (fun name acc ->
        Item.Set.union acc
          (Interp.dynamic_writeset (History.record_of g.Protocol.gp_tentative_exec name)))
      saved Item.Set.empty
  in
  Item.Set.filter
    (fun x ->
      match Item.Map.find_opt x last_writer with
      | Some w -> Names.Set.mem w saved
      | None -> true)
    forwarded_items

(* The phases [Protocol.merge] composes, against the oracles: B as the
   full graph gives it, the merged order as [stable_merge_order] gives it,
   and the forwarded items as the whole-history filter gives them. *)
let plan_matches_oracle ~origin ~tentative ~base_programs (algorithm, strategy) =
  let engine = Engine.create origin in
  let base_list =
    List.map (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p }) base_programs
  in
  let base_history = Protocol.index_history base_list in
  let config = { Protocol.default_merge_config with Protocol.algorithm; Protocol.strategy } in
  let params = Cost.default_params and cost = Cost.zero () in
  let g = Protocol.analyze_graph ~strategy ~params ~cost ~base_history ~origin ~tentative in
  let r =
    Protocol.rewrite_local ~config ~params ~cost ~tentative_exec:g.Protocol.gp_tentative_exec
      ~bad:g.Protocol.gp_bad
  in
  let plan = Protocol.plan_commit ~graph:g ~rewrite:r ~base_history ~tentative in
  let saved = r.Protocol.rp_rewrite.Repro_rewrite.Rewrite.saved in
  let names = stable_merge_order g.Protocol.gp_pg ~removed:r.Protocol.rp_backed_out in
  Names.Set.equal g.Protocol.gp_bad (Backout.compute ~strategy g.Protocol.gp_pg)
  && List.map
       (fun bt -> bt.Protocol.program.Program.name)
       (Protocol.merged_history base_history plan.Protocol.pl_splice)
     = names
  && Item.Set.equal plan.Protocol.pl_forwarded_items
       (whole_history_forwarded g ~saved ~base_history:base_list ~tentative names)

let plan_configs =
  [
    (Repro_rewrite.Rewrite.Can_follow_precede, Backout.Two_cycle_then_greedy);
    (Repro_rewrite.Rewrite.Can_follow, Backout.Greedy_degree);
    (Repro_rewrite.Rewrite.Closure, Backout.Greedy_damage);
    (Repro_rewrite.Rewrite.Can_follow_precede, Backout.Branch_and_bound);
    (Repro_rewrite.Rewrite.Commute_only, Backout.All_in_cycles);
  ]

(* Base histories of 20-40 transactions, so the tail the merge orders is
   a proper part of the window. *)
let prop_plan_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"merge plan = whole-window oracle (random workloads)"
    QCheck.(make Gen.(pair (int_bound 1_000_000) (int_range 20 40)))
    (fun (seed, base_len) ->
      let rng = Rng.create seed in
      let pool = Repro_workload.Gen.pool Repro_workload.Gen.default_profile in
      let origin = Repro_workload.Gen.initial_state pool rng in
      let tentative, base_h =
        Repro_workload.Gen.mobile_base_pair pool rng ~tentative_len:10 ~base_len
      in
      List.for_all
        (plan_matches_oracle ~origin ~tentative ~base_programs:(History.programs base_h))
        plan_configs)

let blind_pair_gen =
  QCheck.Gen.(
    let* s0 = G.state_gen in
    let* m =
      flatten_l (List.init 5 (fun i -> G.blind_program_gen ~name:(Printf.sprintf "Tm%d" (i + 1))))
    in
    let* b =
      flatten_l (List.init 3 (fun i -> G.blind_program_gen ~name:(Printf.sprintf "Tb%d" (i + 1))))
    in
    return (s0, m, b))

let prop_plan_matches_oracle_blind =
  QCheck.Test.make ~count:150 ~name:"merge plan = whole-window oracle (blind-write histories)"
    (QCheck.make blind_pair_gen)
    (fun (s0, tentative_programs, base_programs) ->
      List.for_all
        (plan_matches_oracle ~origin:s0
           ~tentative:(History.of_programs tentative_programs)
           ~base_programs)
        plan_configs)

(* ------------------------------------------------------------------ *)
(* The window's conflict index against a from-scratch build *)

type window_op =
  | Op_base of Program.t
  | Op_reprocess of Program.t list
  | Op_merge of float * Program.t list  (* Strategy 1: [from] as a fraction of the length *)
  | Op_reset

(* Reads, then distinct writes, some of them blind, over [items] items:
   four give dense windows whose cone is most of the graph, twelve sparse
   ones that leave base nodes outside it. *)
let window_program_gen ~items ~name =
  QCheck.Gen.(
    let item = map (Printf.sprintf "i%d") (int_bound (items - 1)) in
    let* reads = list_size (int_bound 2) item in
    let* writes = list_size (int_range 1 2) item in
    let* blind = list_repeat 2 bool in
    let write k x =
      if List.nth blind k then Stmt.Assign (x, Expr.Const k)
      else Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Const 1))
    in
    return
      (Program.make ~name
         (List.map (fun x -> Stmt.Read x) reads @ List.mapi write (List.sort_uniq compare writes))))

let window_case_gen =
  QCheck.Gen.(
    let* items = oneofl [ 4; 12 ] in
    let* strategy1 = bool in
    let* n = int_range 4 30 in
    let batch k prefix =
      let* len = int_range 1 3 in
      flatten_l
        (List.init len (fun i ->
             window_program_gen ~items ~name:(Printf.sprintf "%s%dx%d" prefix k i)))
    in
    let op k =
      let* kind = int_bound 19 in
      if kind < 8 then
        map (fun p -> Op_base p) (window_program_gen ~items ~name:(Printf.sprintf "B%d" k))
      else if kind < 10 then map (fun ps -> Op_reprocess ps) (batch k "R")
      else if kind < 19 then
        let* frac = float_bound_inclusive 1.0 in
        map (fun ps -> Op_merge (frac, ps)) (batch k "M")
      else return Op_reset
    in
    let* ops = flatten_l (List.init n op) in
    return (items, strategy1, ops))

let pp_window_case ppf (items, strategy1, ops) =
  Format.fprintf ppf "@[<v>items=%d strategy%d@ %a@]" items
    (if strategy1 then 1 else 2)
    (Format.pp_print_list (fun ppf -> function
       | Op_base p -> Format.fprintf ppf "base %a" Program.pp p
       | Op_reprocess ps ->
         Format.fprintf ppf "reprocess [%a]" (Format.pp_print_list Program.pp) ps
       | Op_merge (frac, ps) ->
         Format.fprintf ppf "merge %.2f [%a]" frac (Format.pp_print_list Program.pp) ps
       | Op_reset -> Format.fprintf ppf "reset"))
    ops

let names pg = Array.map (fun (s : Summary.t) -> s.Summary.name) (Precedence.summaries pg)
let nodes pg = List.init (Precedence.node_count pg) Fun.id

(* Two graphs of one merge agree on everything the merge path reads: the
   counts, Theorem 1's test, the cycle members, and the cone — its
   summaries in order, ordered successor lists and outside degrees. *)
let same_graph a b =
  let ca = Precedence.cone a and cb = Precedence.cone b in
  Precedence.node_count a = Precedence.node_count b
  && Precedence.edge_count a = Precedence.edge_count b
  && Precedence.is_acyclic a = Precedence.is_acyclic b
  && Names.Set.equal (Precedence.tentative_on_cycles a) (Precedence.tentative_on_cycles b)
  && names ca = names cb
  && List.for_all
       (fun v ->
         Precedence.successors ca v = Precedence.successors cb v
         && Precedence.outside_degree ca v = Precedence.outside_degree cb v)
       (nodes ca)

(* The cone as the full graph gives it: reachability both ways from the
   tentative nodes over the materialised digraph, renumbered in order,
   with successor and predecessor arrays in the full graph's order. *)
let cone_matches_full pg =
  let g = Test_support.Scan.graph pg and n = Precedence.node_count pg in
  let reach next =
    let seen = Array.make n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter visit (next g v)
      end
    in
    List.iter visit (List.init (Precedence.tentative_count pg) Fun.id);
    seen
  in
  let fwd = reach Digraph.successors and bwd = reach Digraph.predecessors in
  let old = List.filter (fun v -> fwd.(v) && bwd.(v)) (nodes pg) in
  let inside v = List.mem v old in
  let renumber v = List.length (List.filter (fun u -> u < v) old) in
  let c = Precedence.cone pg in
  let succ, pred = Precedence.adjacency c in
  names c = Array.of_list (List.map (fun v -> (Precedence.summaries pg).(v).Summary.name) old)
  && List.for_all2
       (fun u v ->
         let outside l = List.length (List.filter (fun w -> not (inside w)) l) in
         Precedence.successors c u = List.map renumber (List.filter inside (Digraph.successors g v))
         && Array.to_list succ.(u) = Precedence.successors c u
         && Array.to_list pred.(u)
            = List.map renumber (List.filter inside (Digraph.predecessors g v))
         && Precedence.outside_degree c u
            = outside (Digraph.successors g v) + outside (Digraph.predecessors g v))
       (nodes c) old

(* A window driven through base transactions, reprocessing, merges (from
   a snapshot position under Strategy 1) and resets. A model list kept the
   way the history was kept before the index — suffix replaced by each
   report's splice, expanded over a fresh index of the model — is the
   from-scratch side. Before each merge
   the graph over the window's index must equal the graph of a fresh
   index of the model's suffix; its full graph must equal the pairwise
   scan, and what it reads from the index on demand (successors, the
   cone) must equal what the full graph gives. *)
let prop_window_index_matches_scratch =
  QCheck.Test.make ~count:300 ~name:"window index = from-scratch build"
    (QCheck.make ~print:(Format.asprintf "%a" pp_window_case) window_case_gen)
    (fun (items, strategy1, ops) ->
      let s0 = State.of_list (List.init items (fun i -> (Printf.sprintf "i%d" i, 10 * i))) in
      let engine = Engine.create s0 in
      let model = ref [] and window_origin = ref s0 and from = ref 0 in
      let runner ~config ~params ~base ~base_history ~origin ~tentative =
        let tentative_s =
          Summary.of_execution ~kind:Summary.Tentative (History.execute origin tentative)
        in
        let suffix = List.filteri (fun k _ -> k >= !from) !model in
        let base_s =
          List.map (fun bt -> Summary.of_record ~kind:Summary.Base bt.Protocol.record) suffix
        in
        let windowed = Precedence.build ~tentative:tentative_s ~base:base_history in
        let full = Test_support.Scan.graph windowed in
        let scratch =
          Precedence.build ~tentative:tentative_s ~base:(Protocol.index_history suffix)
        in
        let names l = List.map (fun bt -> bt.Protocol.program.Program.name) l in
        (* A mismatch ends the case before the merge runs on the bad index. *)
        if
          not
            (names (Precedence.Index.to_list base_history) = names suffix
            && same_graph windowed scratch
            && Test_support.Scan.agrees full ~tentative:tentative_s ~base:base_s
            && Precedence.edges windowed
               = Digraph.edges (Test_support.Scan.pairwise ~tentative:tentative_s ~base:base_s)
            && Precedence.edge_count windowed = Digraph.edge_count full
            && List.for_all
                 (fun v -> Precedence.successors windowed v = Digraph.successors full v)
                 (nodes windowed)
            && cone_matches_full windowed)
        then raise Exit;
        let report = Protocol.merge ~config ~params ~base ~base_history ~origin ~tentative in
        model :=
          List.filteri (fun k _ -> k < !from) !model
          @ Protocol.merged_history (Protocol.index_history suffix) report.Protocol.splice;
        Window.Merge_completed report
      in
      let w =
        Window.create ~runner ~protocol:(Window.Merging Protocol.default_merge_config)
          ~params:Cost.default_params engine
      in
      let play = function
          | Op_base p ->
            let record = Window.base_txn w p in
            model := !model @ [ { Protocol.program = p; record } ]
          | Op_reprocess ps ->
            let origin = Engine.state engine in
            let r = Window.reprocess w ~origin (History.of_programs ps) in
            model := !model @ r.Protocol.appended
          | Op_merge (frac, ps) ->
            from := if strategy1 then int_of_float (frac *. float_of_int (Window.length w)) else 0;
            let origin = Protocol.replay !window_origin (Window.history ~upto:!from w) in
            ignore (Window.merge ~from:!from w ~origin (History.of_programs ps))
          | Op_reset ->
            window_origin := Engine.state engine;
            model := [];
            Window.reset w
      in
      match List.iter play ops with
      | exception Exit -> false
      | () -> State.equal (Protocol.replay !window_origin (Window.history w)) (Engine.state engine))

let test_merge_example1_programs () =
  (* The paper's Example 1, end to end at the program level. *)
  let module Paper = Repro_core.Paper in
  let engine = Engine.create Paper.example1_s0 in
  let base_history =
    Protocol.index_history
      (List.map
         (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p })
         Paper.example1_programs_base)
  in
  let report =
    Protocol.merge ~config:Protocol.default_merge_config ~params:Cost.default_params
      ~base:engine ~base_history ~origin:Paper.example1_s0
      ~tentative:(History.of_programs Paper.example1_programs_tentative)
  in
  checkb "conflict detected: some tentative work backed out" true
    (not (Names.Set.is_empty report.Protocol.backed_out));
  checkb "Tm1 always survives (it conflicts with no base read... via d1 it does not cycle)"
    true
    (Names.Set.mem "Tm1" report.Protocol.saved || Names.Set.mem "Tm1" report.Protocol.backed_out);
  let replayed =
    Protocol.replay Paper.example1_s0 (Protocol.merged_history base_history report.Protocol.splice)
  in
  check_state "merged state = serial replay" (Engine.state engine) replayed

(* Blind-write histories through the full protocol: the adapted
   precedence edges and can-follow keep the merged state consistent with
   a serial replay. *)
let prop_merge_replay_with_blind_writes =
  QCheck.Test.make ~count:150 ~name:"merge state = replay (blind-write histories)"
    (QCheck.make blind_pair_gen)
    (fun (s0, tentative_programs, base_programs) ->
      let engine = Engine.create s0 in
      let base_history =
        Protocol.index_history
          (List.map
             (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p })
             base_programs)
      in
      let report =
        Protocol.merge ~config:Protocol.default_merge_config ~params:Cost.default_params
          ~base:engine ~base_history ~origin:s0
          ~tentative:(History.of_programs tentative_programs)
      in
      let replayed =
        Protocol.replay s0 (Protocol.merged_history base_history report.Protocol.splice)
      in
      State.equal replayed (Engine.state engine))

let test_accept_same_shape () =
  let guarded =
    Program.make ~name:"G" ~ttype:"guarded"
      [
        Stmt.If
          ( Pred.Gt (Expr.Item "x", Expr.Const 0),
            [ Stmt.Update ("y", Expr.Add (Expr.Item "y", Expr.Const 1)) ],
            [] );
      ]
  in
  let taken = Interp.run (State.of_list [ ("x", 1); ("y", 0) ]) guarded in
  let untaken = Interp.run (State.of_list [ ("x", -1); ("y", 0) ]) guarded in
  checkb "same branch accepted" true (Protocol.accept_same_shape ~original:taken ~replayed:taken);
  checkb "different branch rejected" false
    (Protocol.accept_same_shape ~original:taken ~replayed:untaken)

let test_reprocess_all_reexecuted () =
  let engine = Engine.create s0 in
  ignore (Engine.execute engine (inc "Tb1" "x" 1));
  let report =
    Protocol.reprocess ~acceptance:Protocol.accept_always ~params:Cost.default_params
      ~base:engine ~origin:s0
      ~tentative:(History.of_programs [ inc "Tm1" "x" 5; inc "Tm2" "y" 7 ])
  in
  checki "two reexecuted" 2 (List.length report.Protocol.appended);
  check_state "all applied"
    (State.of_list [ ("x", 16); ("y", 27); ("z", 30) ])
    (Engine.state engine);
  checkb "costs charged" true (Cost.total report.Protocol.cost > 0.0)

let test_merge_cheaper_when_everything_saved () =
  (* A large conflict-free tentative history: merging forwards values and
     forces once; reprocessing pays query processing + force per txn. *)
  let tentative = List.init 20 (fun i -> inc (Printf.sprintf "Tm%d" (i + 1)) "x" 1) in
  (* Hmm: these all write x — they conflict with each other but not with
     the base; intra-tentative conflicts are fine. *)
  let base = [ inc "Tb1" "y" 3 ] in
  let _, merge_report, _ = run_merge ~tentative ~base () in
  let engine = Engine.create s0 in
  ignore (Engine.execute engine (inc "Tb1" "y" 3));
  let rep =
    Protocol.reprocess ~acceptance:Protocol.accept_always ~params:Cost.default_params
      ~base:engine ~origin:s0 ~tentative:(History.of_programs tentative)
  in
  checkb "everything saved" true (Names.Set.is_empty merge_report.Protocol.backed_out);
  checkb "merging is cheaper" true
    (Cost.total merge_report.Protocol.cost < Cost.total rep.Protocol.cost)

(* ------------------------------------------------------------------ *)
(* Sync: multi-node simulation *)

let bank = Banking.make ~n_accounts:8

let banking_workload bias =
  {
    Sync.initial = Banking.initial_state bank;
    Sync.make_mobile_txn = (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:bias);
    Sync.make_base_txn = (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:bias);
  }

let run_sync ?(isolation = Sync.Strategy2) ?(protocol = Sync.Merging Protocol.default_merge_config)
    ?(seed = 11) ?(n_mobiles = 4) () =
  Sync.run
    {
      Sync.default_config with
      Sync.isolation;
      Sync.protocol;
      Sync.seed;
      Sync.n_mobiles;
      Sync.duration = 120.0;
      Sync.window = 30.0;
    }
    (banking_workload 0.8)

let test_sync_strategy2_serializable () =
  List.iter
    (fun seed ->
      let stats = run_sync ~seed () in
      checki
        (Printf.sprintf "no serializability violations (seed %d)" seed)
        0 stats.Sync.serializability_violations;
      checki (Printf.sprintf "no anomalies (seed %d)" seed) 0 stats.Sync.anomalies;
      checkb "some merges happened" true (stats.Sync.merges > 0);
      checkb "some transactions saved" true (stats.Sync.saved > 0))
    [ 1; 2; 3; 4; 5 ]

let test_sync_strategy1_detects_anomalies () =
  let total_anomalies =
    List.fold_left
      (fun acc seed ->
        let stats = run_sync ~isolation:Sync.Strategy1 ~seed ~n_mobiles:6 () in
        checki
          (Printf.sprintf "still serializable thanks to detection (seed %d)" seed)
          0 stats.Sync.serializability_violations;
        acc + stats.Sync.anomalies)
      0 [ 1; 2; 3; 4; 5 ]
  in
  checkb "Strategy 1 produces anomalies somewhere" true (total_anomalies > 0)

let test_sync_reprocessing_baseline () =
  let stats = run_sync ~protocol:Sync.Reprocessing () in
  checki "nothing saved" 0 stats.Sync.saved;
  checkb "everything re-executed" true (stats.Sync.reexecuted > 0);
  checki "serializable" 0 stats.Sync.serializability_violations

let test_sync_graph_telemetry () =
  (* Every Strategy-2 merge builds its graph with Precedence.build, so the
     graph counter and span see each one. *)
  Obs.reset ();
  let r = Obs.with_enabled true (fun () -> ignore (run_sync ()); Obs.snapshot ()) in
  Obs.reset ();
  let counter name =
    match List.find_opt (fun (c : Report.counter) -> c.Report.c_name = name) r.Report.counters with
    | Some c -> c.Report.value
    | None -> 0
  in
  let entered name =
    match List.find_opt (fun (s : Report.span) -> s.Report.s_name = name) r.Report.spans with
    | Some s -> s.Report.entered
    | None -> 0
  in
  let merges = counter "protocol.merges" in
  checkb "some merges happened" true (merges > 0);
  checki "one graph per merge" merges (counter "precedence.builds");
  checki "one build span per merge" merges (entered "precedence.build")

let test_sync_deterministic () =
  let a = run_sync ~seed:42 () and b = run_sync ~seed:42 () in
  checkb "same seed, same final state" true (State.equal a.Sync.final_base b.Sync.final_base);
  checki "same saved count" a.Sync.saved b.Sync.saved

(* A merge-friendly workload: the mobile branch works on its own accounts
   (transfers among 0-3, no ledger writes) while the base works on 4-7.
   With few cross conflicts, B stays small and merging forwards nearly
   everything. The default banking mix is merge-hostile — every deposit
   touches the global ledger, putting most tentative transactions into B
   itself, which no amount of transaction semantics can save; that regime
   is exactly where the paper predicts reprocessing wins (Section 7.1). *)
(* The paper's motivating mobile scenario: disconnected order entry. Each
   tentative transaction records a new order under a fresh item, so
   tentative work conflicts neither with the base nor with the mobile's
   own earlier merged work; the base runs transfers on its own accounts.
   (The default banking mix is merge-hostile for two faithful reasons:
   the global ledger puts most tentative transactions into B directly,
   and Strategy 2 restarts every new tentative history from the window
   origin, so a same-window re-merge conflicts with the mobile's own
   already-merged updates.) *)
let order_entry_workload =
  let bank12 = Banking.make ~n_accounts:12 in
  let record_order rng ~name =
    Program.make ~name ~ttype:"record_order"
      ~params:[ ("amt", Rng.in_range rng 5 50) ]
      [ Stmt.Update ("order_" ^ name, Expr.Add (Expr.Item ("order_" ^ name), Expr.Param "amt")) ]
  in
  let transfer rng ~name =
    let from_ = 8 + Rng.int rng 4 in
    let to_ = 8 + ((from_ - 8 + 1 + Rng.int rng 3) mod 4) in
    Banking.transfer bank12 ~name ~from_ ~to_ ~amount:(Rng.in_range rng 1 20)
  in
  {
    Sync.initial = Banking.initial_state bank12;
    Sync.make_mobile_txn = record_order;
    Sync.make_base_txn = transfer;
  }

let test_sync_merging_cheaper_on_commuting_workload () =
  let run protocol =
    Sync.run
      {
        Sync.default_config with
        Sync.protocol;
        Sync.seed = 9;
        Sync.duration = 120.0;
        (* connect often relative to the window so few sessions span a
           boundary and get re-executed as "late" *)
        Sync.window = 40.0;
        Sync.mean_connect_gap = 5.0;
      }
      order_entry_workload
  in
  let merging = run (Sync.Merging Protocol.default_merge_config) in
  let reproc = run Sync.Reprocessing in
  checkb "most tentative transactions saved" true
    (merging.Sync.saved > 3 * merging.Sync.reexecuted);
  checkb "merging total cost below reprocessing" true
    (Cost.total merging.Sync.cost < Cost.total reproc.Sync.cost);
  checki "still serializable" 0 merging.Sync.serializability_violations

let test_trace_rejects_non_positive_intervals () =
  (* Each event schedules its successor one interval later, so these
     would generate forever. *)
  let params = Sync.trace_params { Sync.default_config with Sync.duration = 10.0 } in
  List.iter
    (fun (what, p) ->
      Alcotest.check_raises what
        (Invalid_argument ("Trace.generate: " ^ what ^ " must be > 0"))
        (fun () -> ignore (Trace.generate p order_entry_workload)))
    [
      ("window", { params with Trace.window = 0.0 });
      ("window", { params with Trace.window = -1.0 });
      ("mean_mobile_txn_gap", { params with Trace.mean_mobile_txn_gap = 0.0 });
      ("mean_base_txn_gap", { params with Trace.mean_base_txn_gap = 0.0 });
      ("connect gap mean", { params with Trace.connect_gap = Trace.Exponential 0.0 });
    ]

let test_trace_rejects_non_finite_duration () =
  (* No event time passes a NaN or infinite duration. The workload fails
     after 10,000 programs, so a missing guard fails the test instead of
     generating forever. *)
  let made = ref 0 in
  let counted make rng ~name =
    incr made;
    if !made > 10_000 then failwith "Trace.generate ran on past a non-finite duration";
    make rng ~name
  in
  let workload =
    {
      order_entry_workload with
      Trace.make_mobile_txn = counted order_entry_workload.Trace.make_mobile_txn;
      make_base_txn = counted order_entry_workload.Trace.make_base_txn;
    }
  in
  let params = Sync.trace_params Sync.default_config in
  List.iter
    (fun duration ->
      made := 0;
      Alcotest.check_raises (Printf.sprintf "duration %h" duration)
        (Invalid_argument "Trace.generate: duration must be finite")
        (fun () -> ignore (Trace.generate { params with Trace.duration } workload)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Trace pins: a digest of everything [Trace.generate] produces — each
   event's time in hex (exact to the bit), the event, the full program
   it carries, and the workload's initial state. A change to the rng
   draw order, the event queue's tie order or any generated name moves
   it. *)
let trace_digest params (workload : Sync.workload) =
  let trace = Trace.generate params workload in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Trace.iter
    (fun t ev ->
      Format.fprintf ppf "%h %a@." t Trace.pp_event ev;
      match ev with
      | Trace.Mobile_txn { program; _ } | Trace.Base_txn { program } ->
          Format.fprintf ppf "%a@." Program.pp_full program
      | Trace.Connect _ | Trace.Window_boundary -> ())
    trace;
  List.iter (fun (x, v) -> Format.fprintf ppf "%s=%d@." x v) (State.to_list workload.Sync.initial);
  (Trace.length trace, Digest.to_hex (Digest.string (Buffer.contents buf)))

let sim_trace_pin cfg =
  trace_digest (Sync.trace_params (Sim.sync_config cfg)) (Sim.workload cfg)

let banking_trace_pin connect_alpha =
  trace_digest
    (Sync.trace_params
       {
         Sync.default_config with
         Sync.n_mobiles = 8;
         Sync.duration = 150.0;
         Sync.window = 30.0;
         Sync.mean_connect_gap = 12.0;
         Sync.connect_alpha;
         Sync.seed = 25;
       })
    (banking_workload 0.7)

let check_pin what (events, digest) (events', digest') =
  checki (what ^ " events") events events';
  Alcotest.check Alcotest.string (what ^ " digest") digest digest'

let fleet_local_pin_cfg = { Sim.default_config with Sim.mobiles = 2_000; duration = 10.0; seed = 1 }

let fleet_local_pin () =
  let wl = Sim.workload fleet_local_pin_cfg in
  (wl, Trace.generate (Sync.trace_params (Sim.sync_config fleet_local_pin_cfg)) wl)

let test_trace_pin_fleet_local () =
  check_pin "fleet-local shape" (13344, "698fc96bde1c5f2760fdc56a79e4fbfe")
    (sim_trace_pin fleet_local_pin_cfg)

let test_trace_pin_fleet_hot () =
  check_pin "fleet-hot shape" (418, "ff1f51d063fa505bcffc11949c508b95")
    (sim_trace_pin
       {
         Sim.default_config with
         Sim.mobiles = 60;
         duration = 10.0;
         locality = 0.6;
         shared_items = 64;
         seed = 1;
       })

let test_trace_pin_banking_exponential () =
  check_pin "banking, exponential gaps" (852, "cf2afb527b1ddcaf6cb48f476e509123") (banking_trace_pin None)

let test_trace_pin_banking_pareto () =
  check_pin "banking, Pareto gaps" (872, "eb36d7624d3d9cc74cf88199ea262c2d") (banking_trace_pin (Some 1.5))

(* The trace's own memory, measured on the fleet-local pin trace: two
   words per event for its time and its slot, the event block (none for
   a connect, whose block is shared per mobile, or a window boundary),
   and the programs, whose item names are the workload's own strings. *)
let test_trace_words_per_event () =
  let _, trace = fleet_local_pin () in
  checki "events" 13344 (Trace.length trace);
  let words = float_of_int (Obj.reachable_words (Obj.repr trace)) in
  let per_event = words /. float_of_int (Trace.length trace) in
  checkb (Printf.sprintf "%.2f words per event, at most 12" per_event) true (per_event <= 12.0)

(* What the bound above cannot isolate, since a shared block or string
   still counts once in [Obj.reachable_words]: every connect of a mobile
   is one block, and every item a program names is the very string the
   workload's initial state holds. *)
let test_trace_shares_connects_and_names () =
  let wl, trace = fleet_local_pin () in
  let names = Hashtbl.create 16_384 in
  List.iter (fun (x, _) -> Hashtbl.replace names x x) (State.to_list wl.Sync.initial);
  let first_connect = Hashtbl.create 2_048 in
  let fresh_connects = ref 0 and fresh_names = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Trace.Connect { mobile } -> (
          match Hashtbl.find_opt first_connect mobile with
          | None -> Hashtbl.add first_connect mobile ev
          | Some first -> if first != ev then incr fresh_connects)
      | Trace.Mobile_txn { program; _ } | Trace.Base_txn { program } ->
          Item.Set.iter
            (fun x -> if Hashtbl.find names x != x then incr fresh_names)
            (Program.readset program)
      | Trace.Window_boundary -> ())
    trace;
  checki "connects with a block of their own" 0 !fresh_connects;
  checki "item names that are not the initial state's" 0 !fresh_names

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_replication"
    [
      ( "pqueue",
        [
          Alcotest.test_case "orders by key" `Quick test_pqueue_orders_by_key;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
        ]
        @ qsuite [ prop_pqueue_sorts; prop_pqueue_matches_model; prop_pqueue_matches_model_deep ] );
      ( "protocol",
        [
          Alcotest.test_case "conflict-free merge" `Quick test_merge_conflict_free;
          Alcotest.test_case "write-write backs out" `Quick
            test_merge_write_write_conflict_backs_out;
          Alcotest.test_case "additive conflict composes" `Quick
            test_merge_additive_conflict_saved_by_algorithm2;
          Alcotest.test_case "rejection" `Quick test_merge_rejection;
          Alcotest.test_case "H4-style save in a merge" `Quick
            test_merge_saves_affected_via_can_precede;
          Alcotest.test_case "state = replay of logical history" `Quick
            test_merge_state_equals_replay_of_merged_history;
          Alcotest.test_case "acceptance by shape" `Quick test_accept_same_shape;
          Alcotest.test_case "Example 1 programs end to end" `Quick test_merge_example1_programs;
          Alcotest.test_case "reprocess baseline" `Quick test_reprocess_all_reexecuted;
          Alcotest.test_case "merge cheaper when all saved" `Quick
            test_merge_cheaper_when_everything_saved;
          Alcotest.test_case "splice: pure append" `Quick test_splice_pure_append;
          Alcotest.test_case "splice from the view's position 0" `Quick
            test_splice_from_view_start;
        ]
        @ qsuite
            [
              prop_merge_state_replay;
              prop_merge_replay_with_blind_writes;
              prop_plan_matches_oracle;
              prop_plan_matches_oracle_blind;
              prop_window_index_matches_scratch;
            ] );
      ( "sync",
        [
          Alcotest.test_case "Strategy 2 serializable" `Slow test_sync_strategy2_serializable;
          Alcotest.test_case "Strategy 1 anomalies detected" `Slow
            test_sync_strategy1_detects_anomalies;
          Alcotest.test_case "reprocessing baseline" `Quick test_sync_reprocessing_baseline;
          Alcotest.test_case "deterministic" `Quick test_sync_deterministic;
          Alcotest.test_case "graph telemetry covers every merge" `Quick test_sync_graph_telemetry;
          Alcotest.test_case "merging cheaper (commuting workload)" `Quick
            test_sync_merging_cheaper_on_commuting_workload;
          Alcotest.test_case "non-positive window or gap rejected" `Quick
            test_trace_rejects_non_positive_intervals;
          Alcotest.test_case "non-finite duration rejected" `Quick
            test_trace_rejects_non_finite_duration;
        ] );
      ( "traces",
        [
          Alcotest.test_case "fleet-local shape" `Quick test_trace_pin_fleet_local;
          Alcotest.test_case "fleet-hot shape" `Quick test_trace_pin_fleet_hot;
          Alcotest.test_case "banking, exponential gaps" `Quick test_trace_pin_banking_exponential;
          Alcotest.test_case "banking, Pareto gaps" `Quick test_trace_pin_banking_pareto;
          Alcotest.test_case "at most 12 words per event" `Quick test_trace_words_per_event;
          Alcotest.test_case "connects and item names shared" `Quick
            test_trace_shares_connects_and_names;
        ] );
    ]
