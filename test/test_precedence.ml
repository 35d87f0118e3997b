(* Tests for the Davidson precedence-graph machinery: Example 1 and
   Figure 1 of the paper, back-out strategies, and Theorem 1 (acyclic ⇔
   mergeable) checked by brute force on program-level histories. *)

open Repro_txn
open Repro_history
open Repro_precedence
module Digraph = Test_support.Digraph
module Ex = Test_support.Paper_examples
module G = Test_support.Generators
module Scan = Test_support.Scan
module Ref = Test_support.Ref_backout
module Obs = Repro_obs.Obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let names_of = Names.Set.of_names

(* The graph of two summary lists, the base one indexed. *)
let build ~tentative ~base = Precedence.build ~tentative ~base:(Precedence.Index.of_summaries base)

let example1 () = build ~tentative:Ex.example1_tentative ~base:Ex.example1_base

(* The names [merge_order]'s splice commits, expanded over [base], the
   index the graph was built on. *)
let merged_names pg base (first, tail) =
  let m = Precedence.tentative_count pg in
  let placed v =
    if v >= m then Precedence.Index.Moved (v - m)
    else Precedence.Index.Added (Precedence.summary_of_node pg v)
  in
  List.map
    (fun (s : Summary.t) -> s.Summary.name)
    (Precedence.Index.spliced base ~first (List.map placed tail))

(* ------------------------------------------------------------------ *)
(* Example 1 / Figure 1 *)

let test_example1_edges () =
  let pg = example1 () in
  let name v = (Precedence.summary_of_node pg v).Summary.name in
  let edge a b = List.mem (a, b) (List.map (fun (u, v) -> (name u, name v)) (Precedence.edges pg)) in
  (* Intra-tentative conflict edges. *)
  checkb "Tm1->Tm2 (d2)" true (edge "Tm1" "Tm2");
  checkb "Tm2->Tm3 (d4,d6)" true (edge "Tm2" "Tm3");
  checkb "Tm3->Tm4 (d6)" true (edge "Tm3" "Tm4");
  checkb "Tm2->Tm4 (d6)" true (edge "Tm2" "Tm4");
  (* Intra-base. *)
  checkb "Tb1->Tb2 (d5)" true (edge "Tb1" "Tb2");
  (* Cross edges from the paper's narrative. *)
  checkb "Tb2->Tm1 (Tb2 read d1, Tm1 updated it)" true (edge "Tb2" "Tm1");
  checkb "Tm3->Tb1 (Tm3 read d5, Tb1 updated it)" true (edge "Tm3" "Tb1");
  checkb "Tb1->Tm2 (Tb1 read d5, Tm2 updated it)" true (edge "Tb1" "Tm2");
  checkb "Tb2->Tm2 (Tb2 read d5, Tm2 updated it)" true (edge "Tb2" "Tm2");
  (* No edge in the other directions. *)
  checkb "no Tm1->Tb2" false (edge "Tm1" "Tb2");
  checkb "no Tm4 cross edges" false (edge "Tm4" "Tb1" || edge "Tb1" "Tm4")

let test_example1_cyclic () =
  let pg = example1 () in
  checkb "graph has a cycle" false (Precedence.is_acyclic pg);
  (* The paper's cycle: Tm1 -> Tm2 -> Tm3 -> Tb1 -> Tb2 -> Tm1. *)
  Alcotest.check G.name_set "tentative transactions on cycles"
    (names_of [ "Tm1"; "Tm2"; "Tm3" ])
    (Precedence.tentative_on_cycles pg)

let test_example1_backout_tm3 () =
  let pg = example1 () in
  (* The paper backs out Tm3 (and the affected Tm4). *)
  checkb "removing {Tm3} breaks all cycles" true
    (Backout.breaks_all_cycles pg (names_of [ "Tm3" ]));
  checkb "removing {Tm4} alone does not" false
    (Backout.breaks_all_cycles pg (names_of [ "Tm4" ]))

let test_example1_strategies_feasible () =
  let pg = example1 () in
  List.iter
    (fun strategy ->
      let b = Backout.compute ~strategy pg in
      checkb (Backout.strategy_name strategy ^ " feasible") true (Backout.breaks_all_cycles pg b);
      checkb
        (Backout.strategy_name strategy ^ " only tentative")
        true
        (Names.Set.for_all (fun n -> String.length n > 1 && n.[1] = 'm') b))
    Backout.all_strategies

let test_example1_exhaustive_minimal () =
  let pg = example1 () in
  let b = Backout.compute ~strategy:Backout.Exhaustive pg in
  checki "minimum back-out size is 1" 1 (Names.Set.cardinal b)

let test_example1_affected () =
  (* Tm4 reads d6 from Tm3, hence is affected when Tm3 is backed out. *)
  Alcotest.check G.name_set "AG = {Tm4}" (names_of [ "Tm4" ])
    (Affected.affected Ex.example1_tentative ~bad:(names_of [ "Tm3" ]));
  Alcotest.check G.name_set "closure" (names_of [ "Tm3"; "Tm4" ])
    (Affected.closure Ex.example1_tentative ~bad:(names_of [ "Tm3" ]))

let test_example1_merge_order () =
  let base = Precedence.Index.of_summaries Ex.example1_base in
  let pg = Precedence.build ~tentative:Ex.example1_tentative ~base in
  (* After backing out Tm3 and Tm4, the paper's equivalent merged history
     is H = Tb1 Tb2 Tm1 Tm2. *)
  match Precedence.merge_order pg ~removed:(names_of [ "Tm3"; "Tm4" ]) with
  | None -> Alcotest.fail "expected an acyclic reduced graph"
  | Some splice ->
    Alcotest.check (Alcotest.list Alcotest.string) "paper's merged history"
      [ "Tb1"; "Tb2"; "Tm1"; "Tm2" ] (merged_names pg base splice)

(* [Index.splice] on a view: the positions the tail moves leave their
   places, the others from [first] on close up in order, and the tail
   follows; [Index.spliced] lists the same beforehand. The spliced index
   gives the graph a fresh index of its list gives. *)
let test_index_splice () =
  let base name item = Summary.make ~name ~kind:Summary.Base ~reads:[ item ] ~writes:[ item ] in
  let index =
    Precedence.Index.of_summaries
      [ base "B0" "a"; base "B1" "x"; base "B2" "y"; base "B3" "x"; base "B4" "z" ]
  in
  let view = Precedence.Index.suffix index ~from:1 in
  let names l = List.map (fun (s : Summary.t) -> s.Summary.name) l in
  let listed () = names (Precedence.Index.to_list index) in
  let tail = Precedence.Index.[ Moved 0; Added (base "N" "x"); Moved 2 ] in
  let want = [ "B0"; "B2"; "B4"; "B1"; "N"; "B3" ] in
  Alcotest.(check (list string))
    "spliced" (List.tl want)
    (names (Precedence.Index.spliced view ~first:0 tail));
  let rejects what ~first tail =
    Alcotest.(check bool)
      what true
      (match Precedence.Index.splice view ~first tail with
      | () -> false
      | exception Invalid_argument _ -> true);
    Alcotest.(check (list string)) (what ^ ": index unchanged") [ "B0"; "B1"; "B2"; "B3"; "B4" ]
      (listed ())
  in
  rejects "moves a position before first" ~first:1 [ Precedence.Index.Moved 0 ];
  rejects "moves a position twice" ~first:0 Precedence.Index.[ Moved 1; Moved 1 ];
  rejects "moves a position past the view" ~first:0 [ Precedence.Index.Moved 4 ];
  rejects "first past the view" ~first:5 [];
  Precedence.Index.splice view ~first:0 tail;
  Alcotest.(check (list string)) "spliced index" want (listed ());
  let tentative = [ Summary.make ~name:"T" ~kind:Summary.Tentative ~reads:[ "x"; "z" ] ~writes:[ "x" ] ] in
  let edges pg =
    List.map
      (fun (u, v) ->
        ((Precedence.summary_of_node pg u).Summary.name, (Precedence.summary_of_node pg v).Summary.name))
      (Precedence.edges pg)
  in
  Alcotest.(check (list (pair string string)))
    "graph = fresh index's"
    (edges (Precedence.build ~tentative ~base:(Precedence.Index.of_summaries (Precedence.Index.to_list index))))
    (edges (Precedence.build ~tentative ~base:index))

let test_dot_export () =
  let pg = example1 () in
  let dot = Dot.render ~removed:(names_of [ "Tm3" ]) pg in
  checkb "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  checkb "tentative node" true (contains "Tm1 [shape=ellipse]");
  checkb "base node" true (contains "Tb1 [shape=box]");
  checkb "removed node greyed" true (contains "Tm3 [shape=ellipse, style=\"filled,dashed\"");
  checkb "cross edge" true (contains "Tb2 -> Tm1;")

let test_example1_bnb_minimal () =
  let pg = example1 () in
  let bnb = Backout.compute ~strategy:Backout.Branch_and_bound pg in
  checki "branch-and-bound finds the paper's minimum" 1 (Names.Set.cardinal bnb);
  checkb "and it is feasible" true (Backout.breaks_all_cycles pg bnb)

let test_duplicate_names_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Precedence.build: duplicate transaction name Tm1") (fun () ->
      ignore (build ~tentative:Ex.example1_tentative ~base:Ex.example1_tentative))

(* ------------------------------------------------------------------ *)
(* Theorem 1 (Davidson): acyclic iff the two histories are mergeable.
   Checked on program-level histories by brute force: a merge is an
   interleaving that preserves both histories' orders and lets every
   transaction observe exactly the reads it observed in its own history. *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (( != ) x) l)))
      l

(* A merged history in the Theorem 1 sense is a serial history over both
   transaction sets that (a) preserves each history's order on its
   dynamically conflicting pairs — non-conflicting same-history
   transactions may reorder, invisible to that history's users —
   (b) gives every transaction exactly the reads it observed in its own
   history, from the same writers (writer identity matters: a writer can
   coincidentally restore a value), and (c) ends in the forwarded state:
   H_b's final state overwritten with H_m's final values on the items H_m
   wrote. *)
let reads_consistent_merge s0 hm hb =
  let exec_m = History.execute s0 hm and exec_b = History.execute s0 hb in
  let observed exec =
    let writer_of =
      List.fold_left
        (fun m e -> ((e.Readsfrom.reader, e.Readsfrom.item), e.Readsfrom.writer) :: m)
        [] (Readsfrom.edges exec)
    in
    List.map
      (fun (r : Interp.record) ->
        let name = r.Interp.program.Program.name in
        let reads_with_writers =
          List.map (fun (x, v) -> (x, v, List.assoc_opt (name, x) writer_of)) r.Interp.reads
        in
        (name, reads_with_writers))
      exec.History.records
  in
  let expected = observed exec_m @ observed exec_b in
  let conflict_pairs exec =
    let records = Array.of_list exec.History.records in
    let n = Array.length records in
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let ri = records.(i) and rj = records.(j) in
        let wi = Interp.dynamic_writeset ri and wj = Interp.dynamic_writeset rj in
        let ai = Item.Set.union (Interp.dynamic_readset ri) wi in
        let aj = Item.Set.union (Interp.dynamic_readset rj) wj in
        if (not (Item.Set.disjoint wi aj)) || not (Item.Set.disjoint wj ai) then
          pairs :=
            (ri.Interp.program.Program.name, rj.Interp.program.Program.name) :: !pairs
      done
    done;
    !pairs
  in
  let ordered_pairs = conflict_pairs exec_m @ conflict_pairs exec_b in
  let dyn_writes exec =
    List.fold_left
      (fun acc (r : Interp.record) -> Item.Set.union acc (Interp.dynamic_writeset r))
      Item.Set.empty exec.History.records
  in
  let expected_final =
    State.merge_updates exec_b.History.final exec_m.History.final (dyn_writes exec_m)
  in
  let respects_conflict_order order =
    let pos = List.mapi (fun i (p : Program.t) -> (p.Program.name, i)) order in
    List.for_all
      (fun (earlier, later) -> List.assoc earlier pos < List.assoc later pos)
      ordered_pairs
  in
  let consistent order =
    let state = ref s0 in
    let last_writer = Hashtbl.create 16 in
    List.for_all
      (fun (p : Program.t) ->
        let r = Interp.run !state p in
        state := r.Interp.after;
        let name = p.Program.name in
        let performed =
          List.map (fun (x, v) -> (x, v, Hashtbl.find_opt last_writer x)) r.Interp.reads
        in
        List.iter (fun (x, _, _) -> Hashtbl.replace last_writer x name) r.Interp.writes;
        List.assoc name expected = performed)
      order
    && State.equal !state expected_final
  in
  List.exists
    (fun order -> respects_conflict_order order && consistent order)
    (permutations (History.programs hm @ History.programs hb))

let split_pair_gen =
  (* Two short histories over the shared small-item universe. *)
  QCheck.Gen.(
    let* s0 = G.state_gen in
    let* m =
      flatten_l (List.init 3 (fun i -> G.program_gen ~name:(Printf.sprintf "Tm%d" (i + 1))))
    in
    let* b =
      flatten_l (List.init 2 (fun i -> G.program_gen ~name:(Printf.sprintf "Tb%d" (i + 1))))
    in
    return (s0, History.of_programs m, History.of_programs b))

let arbitrary_split_pair =
  QCheck.make
    ~print:(fun (s0, hm, hb) ->
      let pp_programs ppf h =
        Format.pp_print_list ~pp_sep:Format.pp_print_cut Program.pp_full ppf
          (History.programs h)
      in
      Format.asprintf "@[<v>s0=%a@ Hm:@ %a@ Hb:@ %a@]" State.pp s0 pp_programs hm pp_programs hb)
    split_pair_gen

let prop_theorem1_acyclic_implies_mergeable =
  QCheck.Test.make ~count:150 ~name:"Thm 1 (⇒): acyclic graph admits a reads-consistent merge"
    arbitrary_split_pair
    (fun (s0, hm, hb) ->
      let pg =
        Precedence.of_executions ~tentative:(History.execute s0 hm) ~base:(History.execute s0 hb)
      in
      QCheck.assume (Precedence.is_acyclic pg);
      reads_consistent_merge s0 hm hb)

let prop_theorem1_cyclic_implies_unmergeable =
  QCheck.Test.make ~count:150 ~name:"Thm 1 (⇐): cyclic graph admits no reads-consistent merge"
    arbitrary_split_pair
    (fun (s0, hm, hb) ->
      let pg =
        Precedence.of_executions ~tentative:(History.execute s0 hm) ~base:(History.execute s0 hb)
      in
      QCheck.assume (not (Precedence.is_acyclic pg));
      not (reads_consistent_merge s0 hm hb))

let prop_merge_order_execution_matches_forwarding =
  (* Protocol step 5: executing the merged order serially equals taking
     H_b's final state and overwriting items written by the (whole,
     conflict-free) tentative history with their H_m-final values. *)
  QCheck.Test.make ~count:150 ~name:"merged execution = forwarded updates (acyclic case)"
    arbitrary_split_pair
    (fun (s0, hm, hb) ->
      let em = History.execute s0 hm and eb = History.execute s0 hb in
      let base = Precedence.Index.of_summaries (Summary.of_execution ~kind:Summary.Base eb) in
      let pg =
        Precedence.build ~tentative:(Summary.of_execution ~kind:Summary.Tentative em) ~base
      in
      QCheck.assume (Precedence.is_acyclic pg);
      match Precedence.merge_order pg ~removed:Names.Set.empty with
      | None -> false
      | Some splice ->
        let program_of name =
          (History.find (if History.mem hm name then hm else hb) name).History.program
        in
        let merged_final =
          List.fold_left
            (fun s name -> Interp.apply s (program_of name))
            s0 (merged_names pg base splice)
        in
        let dyn_writes exec =
          List.fold_left
            (fun acc (r : Interp.record) -> Item.Set.union acc (Interp.dynamic_writeset r))
            Item.Set.empty exec.History.records
        in
        let forwarded =
          State.merge_updates eb.History.final em.History.final (dyn_writes em)
        in
        State.equal merged_final forwarded)

(* Back-out strategy properties on random summary workloads. *)

let summary_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Repro_workload.Rng.create seed in
    let tentative, base =
      Repro_workload.Gen.summaries rng ~n_items:12 ~tentative:8 ~base:5 ~reads:(1, 3)
        ~writes:(1, 2) ~skew:0.9 ~blind:0.3
    in
    return (build ~tentative ~base))

let arbitrary_summary_case =
  QCheck.make ~print:(fun pg -> Format.asprintf "%a" Precedence.pp pg) summary_case_gen

let prop_strategies_feasible =
  QCheck.Test.make ~count:200 ~name:"every strategy's B breaks all cycles"
    arbitrary_summary_case
    (fun pg ->
      List.for_all
        (fun strategy -> Backout.breaks_all_cycles pg (Backout.compute ~strategy pg))
        Backout.all_strategies)

let prop_exhaustive_minimal =
  QCheck.Test.make ~count:100 ~name:"exhaustive strategy is no larger than the others"
    arbitrary_summary_case
    (fun pg ->
      let size s = Names.Set.cardinal (Backout.compute ~strategy:s pg) in
      let m = size Backout.Exhaustive in
      m <= size Backout.All_in_cycles && m <= size Backout.Greedy_degree
      && m <= size Backout.Two_cycle_then_greedy)

let prop_acyclic_empty_backout =
  QCheck.Test.make ~count:200 ~name:"acyclic graphs need no back-out" arbitrary_summary_case
    (fun pg ->
      QCheck.assume (Precedence.is_acyclic pg);
      List.for_all
        (fun strategy -> Names.Set.is_empty (Backout.compute ~strategy pg))
        Backout.all_strategies)

(* Branch-and-bound against the exhaustive oracle, on graphs wide enough
   to exercise the solver (up to 14 cyclic tentative nodes — inside the
   oracle's enumeration comfort zone, past what hand inspection covers). *)

let wide_shape ~tentative =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* tentative = tentative in
    let rng = Repro_workload.Rng.create seed in
    return
      (Repro_workload.Gen.summaries rng ~n_items:15 ~tentative ~base:8 ~reads:(1, 3)
         ~writes:(1, 2) ~skew:0.7 ~blind:0.3))

let built shape = QCheck.Gen.map (fun (tentative, base) -> build ~tentative ~base) shape
let wide_case_gen = built (wide_shape ~tentative:(QCheck.Gen.int_range 4 14))

let arbitrary_wide_case =
  QCheck.make ~print:(fun pg -> Format.asprintf "%a" Precedence.pp pg) wide_case_gen

let prop_bnb_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"branch-and-bound: feasible and |B| equals the exhaustive oracle" arbitrary_wide_case
    (fun pg ->
      let bnb = Backout.compute ~strategy:Backout.Branch_and_bound pg in
      let oracle = Backout.compute ~strategy:Backout.Exhaustive pg in
      Backout.breaks_all_cycles pg bnb
      && Names.Set.cardinal bnb = Names.Set.cardinal oracle)

(* ------------------------------------------------------------------ *)
(* Indexed build vs the pairwise scan. *)

let oracle_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* tentative = int_bound 8 in
    let* base = int_bound 8 in
    let rng = Repro_workload.Rng.create seed in
    return
      (Repro_workload.Gen.summaries rng ~n_items:12 ~tentative ~base ~reads:(1, 3)
         ~writes:(1, 2) ~skew:0.9 ~blind:0.3))

let print_summaries (tentative, base) =
  Format.asprintf "@[<v>%a@ %a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Summary.pp)
    tentative
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Summary.pp)
    base

let arbitrary_oracle_case = QCheck.make ~print:print_summaries oracle_case_gen

let prop_build_equals_scan =
  (* Ordered, not as sets: back-out, SCC and the DOT render all follow
     successor and predecessor order. *)
  QCheck.Test.make ~count:500 ~name:"indexed build = pairwise scan" arbitrary_oracle_case
    (fun (tentative, base) ->
      let pg = build ~tentative ~base in
      Scan.agrees (Scan.graph pg) ~tentative ~base
      && Precedence.edges pg = Digraph.edges (Scan.pairwise ~tentative ~base))

(* [Summary.conflicts] against the formula it replaced, which built the
   union of one side's item sets on every call. *)
let prop_conflicts_truth_table =
  QCheck.Test.make ~count:300 ~name:"Summary.conflicts = the union formula"
    arbitrary_oracle_case (fun (tentative, base) ->
      let union_formula (a : Summary.t) (b : Summary.t) =
        (not
           (Item.Set.disjoint a.Summary.writeset
              (Item.Set.union b.Summary.readset b.Summary.writeset)))
        || not (Item.Set.disjoint b.Summary.writeset a.Summary.readset)
      in
      let all = tentative @ base in
      List.for_all
        (fun a -> List.for_all (fun b -> Summary.conflicts a b = union_formula a b) all)
        all)

let test_scan_order_pins_bnb () =
  (* Branch-and-bound follows edge order: a graph with the same edge set
     but another insertion order backs out Tm3 here instead of Tm4. *)
  let tentative, base =
    Repro_workload.Gen.summaries (Repro_workload.Rng.create 673) ~n_items:12 ~tentative:8
      ~base:8 ~reads:(1, 3) ~writes:(1, 2) ~skew:0.9 ~blind:0.3
  in
  let pg = build ~tentative ~base in
  let expected = names_of [ "Tm1"; "Tm2"; "Tm4"; "Tm5"; "Tm6"; "Tm7"; "Tm8" ] in
  Alcotest.check G.name_set "B on seed 673" expected
    (Backout.compute ~strategy:Backout.Branch_and_bound pg);
  Alcotest.check G.name_set "B on seed 673's cone" expected
    (Backout.compute ~strategy:Backout.Branch_and_bound (Precedence.cone pg))

(* ------------------------------------------------------------------ *)
(* Back-out on the conflict cone against the reference on the full graph. *)

(* Sparse windows: a few tentative transactions among many base ones over
   a wide item space. About a quarter come out acyclic, and the cone
   averages 7 of 48 nodes. *)
let sparse_shape ~tentative =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* tentative = tentative in
    let* base = int_range 30 60 in
    let rng = Repro_workload.Rng.create seed in
    return
      (Repro_workload.Gen.summaries rng ~n_items:64 ~tentative ~base ~reads:(1, 2) ~writes:(1, 1)
         ~skew:0.3 ~blind:0.3))

let sparse_case_gen = built (sparse_shape ~tentative:(QCheck.Gen.int_range 2 4))

(* Fleet-hot windows: one or two tentative transactions against 60-120
   base ones over 64 Zipf-skewed items, so that most windows are cyclic
   and the cone is a small part of the graph. *)
let hot_shape ~tentative =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* tentative = tentative in
    let* base = int_range 60 120 in
    let rng = Repro_workload.Rng.create seed in
    return
      (Repro_workload.Gen.summaries rng ~n_items:64 ~tentative ~base ~reads:(0, 1) ~writes:(1, 2)
         ~skew:0.9 ~blind:0.3))

let hot_case_gen = built (hot_shape ~tentative:(QCheck.Gen.int_range 1 2))

(* The cone against the reference on the full graph, which copies the
   graph for every greedy round and runs a hashtable Tarjan on it: the
   acyclicity test, the cyclic components as names — in order, members
   too, since the exact solvers number their core by them — and every
   strategy's B. *)
let cone_agrees pg =
  let g = Scan.graph pg in
  let named pg = List.map (List.map (fun v -> (Precedence.summary_of_node pg v).Summary.name)) in
  Precedence.is_acyclic pg = Ref.Tarjan.is_acyclic g
  && Names.Set.equal (Precedence.tentative_on_cycles pg) (Ref.tentative_on_cycles pg)
  && named (Precedence.cone pg) (Precedence.cyclic_components pg)
     = named pg (Ref.cyclic_components pg)
  && List.for_all
       (fun strategy ->
         Names.Set.equal (Backout.compute ~strategy pg) (Ref.compute ~strategy pg))
       Backout.all_strategies

(* All three shapes stay within 14 tentative transactions, where
   [Exhaustive] is affordable. *)
let prop_cone_matches_full =
  QCheck.Test.make ~count:300 ~name:"cone: acyclicity, cycle members and every B as on the graph"
    (QCheck.make
       ~print:(fun pg -> Format.asprintf "%a" Precedence.pp pg)
       (QCheck.Gen.oneof [ wide_case_gen; sparse_case_gen; hot_case_gen ]))
    cone_agrees

(* Greedy's victim rule keeps the full graph's degree: ranking by the
   cone's own degree changes B on these two windows. *)
let test_cone_pins_greedy_degree () =
  let pins =
    [
      ( Backout.Greedy_degree,
        Repro_workload.Gen.summaries (Repro_workload.Rng.create 1298716) ~n_items:12
          ~tentative:8 ~base:5 ~reads:(1, 3) ~writes:(1, 2) ~skew:0.9 ~blind:0.3,
        [ "Tm1"; "Tm2"; "Tm3"; "Tm4"; "Tm5"; "Tm6"; "Tm7" ] );
      ( Backout.Two_cycle_then_greedy,
        Repro_workload.Gen.summaries (Repro_workload.Rng.create 1971832) ~n_items:15
          ~tentative:14 ~base:8 ~reads:(1, 3) ~writes:(1, 2) ~skew:0.7 ~blind:0.3,
        [ "Tm2"; "Tm3"; "Tm5"; "Tm6"; "Tm7"; "Tm8"; "Tm9"; "Tm10"; "Tm11"; "Tm12"; "Tm13"; "Tm14" ]
      );
    ]
  in
  List.iter
    (fun (strategy, (tentative, base), expected) ->
      let pg = build ~tentative ~base in
      let name = Backout.strategy_name strategy in
      Alcotest.check G.name_set (name ^ " on the graph") (names_of expected)
        (Backout.compute ~strategy pg);
      Alcotest.check G.name_set (name ^ " on the cone") (names_of expected)
        (Backout.compute ~strategy (Precedence.cone pg)))
    pins

(* ------------------------------------------------------------------ *)
(* Forced back-out. *)

(* The three shapes above with one tentative transaction, so that both
   acyclic and cyclic graphs occur, and in one case of four with two, the
   first count at which the strategies may differ. *)
let forced_case_gen =
  let tentative = QCheck.Gen.frequency [ (3, QCheck.Gen.return 1); (1, QCheck.Gen.return 2) ] in
  QCheck.Gen.oneof [ hot_shape ~tentative; wide_shape ~tentative; sparse_shape ~tentative ]

let pruned = Obs.Counter.make "backout.bnb_nodes_pruned"

(* With one tentative transaction t, every cycle passes through t and
   only t may be removed, so every strategy gives {t} on a cyclic graph
   and nothing on an acyclic one, and branch and bound's search would cut
   its root once on a cyclic graph. Every B is the reference's on the full
   graph. A cyclic one-tentative graph's B needs nothing of the index: it
   comes out the same after the index changed, when building the cone
   would raise. *)
let forced_agrees (tentative, base) =
  let pg = build ~tentative ~base in
  let one = Precedence.tentative_count pg = 1 in
  let cyclic = not (Ref.Tarjan.is_acyclic (Scan.graph pg)) in
  let expected =
    if cyclic then Names.Set.singleton (Precedence.summary_of_node pg 0).Summary.name
    else Names.Set.empty
  in
  let stale =
    let index = Precedence.Index.of_summaries base in
    let pg = Precedence.build ~tentative ~base:index in
    ignore (Precedence.is_acyclic pg);
    Precedence.Index.clear index;
    pg
  in
  List.for_all
    (fun strategy ->
      let before = Obs.Counter.value pruned in
      let b = Obs.with_enabled true (fun () -> Backout.compute ~strategy pg) in
      let cuts = Obs.Counter.value pruned - before in
      Names.Set.equal b (Ref.compute ~strategy pg)
      && Backout.breaks_all_cycles pg b
      && ((not one)
         || Names.Set.equal b expected
            && (strategy <> Backout.Branch_and_bound || cuts = Bool.to_int cyclic)
            && ((not cyclic) || Names.Set.equal (Backout.compute ~strategy stale) expected)))
    Backout.all_strategies

let prop_forced_backout =
  QCheck.Test.make ~count:300 ~name:"one tentative: B is {t} or empty, as the reference, with no cone"
    (QCheck.make ~print:print_summaries forced_case_gen)
    forced_agrees

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_precedence"
    [
      ( "example1",
        [
          Alcotest.test_case "Figure 1 edges" `Quick test_example1_edges;
          Alcotest.test_case "cycle detected" `Quick test_example1_cyclic;
          Alcotest.test_case "backing out Tm3" `Quick test_example1_backout_tm3;
          Alcotest.test_case "all strategies feasible" `Quick test_example1_strategies_feasible;
          Alcotest.test_case "exhaustive is minimal" `Quick test_example1_exhaustive_minimal;
          Alcotest.test_case "Tm4 affected" `Quick test_example1_affected;
          Alcotest.test_case "merged history Tb1 Tb2 Tm1 Tm2" `Quick test_example1_merge_order;
          Alcotest.test_case "index splice" `Quick test_index_splice;
          Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "branch-and-bound is minimal" `Quick test_example1_bnb_minimal;
        ] );
      ( "theorem1",
        qsuite
          [
            prop_theorem1_acyclic_implies_mergeable;
            prop_theorem1_cyclic_implies_unmergeable;
            prop_merge_order_execution_matches_forwarding;
          ] );
      ( "backout",
        qsuite [ prop_strategies_feasible; prop_exhaustive_minimal; prop_acyclic_empty_backout ]
      );
      ("branch-and-bound", qsuite [ prop_bnb_matches_oracle ]);
      ( "oracle",
        Alcotest.test_case "scan order pins branch-and-bound" `Quick test_scan_order_pins_bnb
        :: qsuite [ prop_build_equals_scan; prop_conflicts_truth_table ] );
      ( "cone",
        Alcotest.test_case "full-graph degree pins greedy" `Quick test_cone_pins_greedy_degree
        :: qsuite [ prop_cone_matches_full ] );
      ("forced", qsuite [ prop_forced_backout ]);
    ]
