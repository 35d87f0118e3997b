(* Quickstart: the paper's Example 1 end to end, then a program-level
   merge through the public API.

   Run with: dune exec examples/quickstart.exe *)

open Repro_txn
open Repro_history
open Repro_precedence
module Paper = Repro_core.Paper
module Session = Repro_core.Session
module Protocol = Repro_replication.Protocol

let section title = Format.printf "@.== %s ==@.@." title

(* ------------------------------------------------------------------ *)
(* Part 1: Example 1 at the summary level (its transactions use blind
   writes, so only read/write sets are involved — exactly what the mobile
   ships to the base). *)

let example1 () =
  section "Example 1: precedence graph, cycle, back-out";
  let base = Precedence.Index.of_summaries Paper.example1_base in
  let pg = Precedence.build ~tentative:Paper.example1_tentative ~base in
  Format.printf "%a@.@." Precedence.pp pg;
  Format.printf "acyclic? %b (the paper's cycle: Tm1 -> Tm2 -> Tm3 -> Tb1 -> Tb2 -> Tm1)@."
    (Precedence.is_acyclic pg);
  let b = Names.Set.of_names [ "Tm3" ] in
  Format.printf "backing out the paper's B = {Tm3} breaks all cycles? %b@."
    (Backout.breaks_all_cycles pg b);
  let affected = Affected.affected Paper.example1_tentative ~bad:b in
  Format.printf "affected by Tm3 (reads-from closure): %a@." Names.Set.pp affected;
  match Precedence.merge_order pg ~removed:(Names.Set.add "Tm4" b) with
  | Some (first, tail) ->
    (* The order is a splice of the base history: tail node [v] is base
       position [v - m], or a tentative summary. *)
    let m = Precedence.tentative_count pg in
    let placed v =
      if v >= m then Precedence.Index.Moved (v - m)
      else Precedence.Index.Added (Precedence.summary_of_node pg v)
    in
    let merged = Precedence.Index.spliced base ~first (List.map placed tail) in
    Format.printf "equivalent merged history: %s   (paper: Tb1 Tb2 Tm1 Tm2)@."
      (String.concat " " (List.map (fun (s : Summary.t) -> s.Summary.name) merged))
  | None -> Format.printf "unexpected: reduced graph still cyclic@."

(* ------------------------------------------------------------------ *)
(* Part 1b: Example 1 again, but as concrete programs (blind writes
   realized with Assign), pushed through the full protocol. *)

let example1_programs () =
  section "Example 1 as programs, end to end";
  let result =
    Session.merge_once ~s0:Paper.example1_s0 ~tentative:Paper.example1_programs_tentative
      ~base:Paper.example1_programs_base ()
  in
  let report = result.Session.report in
  Format.printf "B = %a, saved = %a, backed out & re-executed = %a@." Names.Set.pp
    report.Protocol.bad Names.Set.pp report.Protocol.saved Names.Set.pp
    report.Protocol.backed_out;
  Format.printf "merged logical order: %s@."
    (String.concat " "
       (List.map
          (fun (bt : Protocol.base_txn) -> bt.Protocol.program.Program.name)
          (Protocol.merged_history result.Session.base_history report.Protocol.splice)));
  Format.printf "merged state: %a@." State.pp result.Session.merged_state

(* ------------------------------------------------------------------ *)
(* Part 2: a full program-level merge session through Session.merge_once:
   a mobile sales terminal recorded orders while the base shipped
   inventory. *)

let merge_session () =
  section "A full merge session (program level)";
  let item_update name item delta =
    Program.make ~name ~ttype:"adjust"
      ~params:[ ("d", delta) ]
      [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Param "d")) ]
  in
  let audit name items = Program.make ~name ~ttype:"audit" (List.map (fun x -> Stmt.Read x) items) in
  let s0 = State.of_list [ ("stock_widgets", 100); ("stock_gears", 80); ("orders", 0) ] in
  (* The mobile takes two orders and audits; the base restocks gears and
     corrects the widget count (colliding with the mobile's order). *)
  let tentative =
    [
      item_update "Tm1" "orders" 2;
      item_update "Tm2" "stock_widgets" (-5);
      audit "Tm3" [ "orders"; "stock_gears" ];
    ]
  in
  let base =
    [ item_update "Tb1" "stock_gears" 40; item_update "Tb2" "stock_widgets" (-10) ]
  in
  let result = Session.merge_once ~s0 ~tentative ~base () in
  let report = result.Session.report in
  Format.printf "B          = %a@." Names.Set.pp report.Protocol.bad;
  Format.printf "affected   = %a@." Names.Set.pp report.Protocol.affected;
  Format.printf "saved      = %a@." Names.Set.pp report.Protocol.saved;
  Format.printf "backed out = %a (re-executed at the base)@." Names.Set.pp
    report.Protocol.backed_out;
  Format.printf "merged state: %a@." State.pp result.Session.merged_state;
  Format.printf "protocol cost: %a@." Repro_replication.Cost.pp report.Protocol.cost;
  List.iter
    (fun (t : Protocol.txn_report) ->
      Format.printf "  %-4s %s@." t.Protocol.name
        (match t.Protocol.outcome with
        | Protocol.Merged -> "merged (work saved)"
        | Protocol.Reexecuted -> "re-executed at base"
        | Protocol.Rejected -> "rejected"))
    report.Protocol.txns

(* ------------------------------------------------------------------ *)
(* Part 3: the same session under both protocols — the Section 7.1
   comparison in one call. *)

let comparison () =
  section "Merging vs two-tier reprocessing";
  let inc name item d =
    Program.make ~name ~ttype:"inc"
      ~params:[ ("d", d) ]
      [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Param "d")) ]
  in
  let s0 = State.of_list (List.init 10 (fun i -> (Printf.sprintf "it%d" i, 50))) in
  let tentative = List.init 12 (fun i -> inc (Printf.sprintf "Tm%d" (i + 1)) (Printf.sprintf "it%d" (i mod 5)) 3) in
  let base = [ inc "Tb1" "it7" 10; inc "Tb2" "it8" (-4) ] in
  let cmp = Session.compare_protocols ~s0 ~tentative ~base () in
  Format.printf "merge cost:     %a@." Repro_replication.Cost.pp cmp.Session.merge_cost;
  Format.printf "reprocess cost: %a@." Repro_replication.Cost.pp cmp.Session.reprocess_cost;
  Format.printf "winner: %s@."
    (if
       Repro_replication.Cost.total cmp.Session.merge_cost
       < Repro_replication.Cost.total cmp.Session.reprocess_cost
     then "merging (large SAV)"
     else "reprocessing (small SAV)")

let () =
  example1 ();
  example1_programs ();
  merge_session ();
  comparison ();
  Format.printf "@.quickstart: done@."
