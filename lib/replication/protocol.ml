open Repro_txn
open Repro_history
open Repro_precedence
open Repro_rewrite
module Engine = Repro_db.Engine
module Obs = Repro_obs.Obs

let obs_merges = Obs.Counter.make "protocol.merges"
let obs_reprocess_sessions = Obs.Counter.make "protocol.reprocess_sessions"
let obs_txn_merged = Obs.Counter.make "protocol.txn_merged"
let obs_txn_reexecuted = Obs.Counter.make "protocol.txn_reexecuted"
let obs_txn_rejected = Obs.Counter.make "protocol.txn_rejected"
let obs_forwarded = Obs.Dist.make "protocol.forwarded_items"
let obs_merge_cost = Obs.Dist.make "protocol.merge_cost"
let obs_reprocess_cost = Obs.Dist.make "protocol.reprocess_cost"

type acceptance = original:Interp.record -> replayed:Interp.record -> bool

let accept_always ~original:_ ~replayed:_ = true

let accept_same_shape ~original ~replayed =
  Item.Set.equal (Interp.dynamic_writeset original) (Interp.dynamic_writeset replayed)

let accept_within ~tolerance ~original ~replayed =
  let value_of writes x = List.find_map (fun (y, _, v) -> if Item.equal x y then Some v else None) writes in
  Item.Set.for_all
    (fun x ->
      match (value_of original.Interp.writes x, value_of replayed.Interp.writes x) with
      | Some a, Some b -> abs (a - b) <= tolerance
      | None, None -> true
      | Some _, None | None, Some _ -> false)
    (Item.Set.union (Interp.dynamic_writeset original) (Interp.dynamic_writeset replayed))

type base_txn = { program : Program.t; record : Interp.record }
type outcome = Merged | Reexecuted | Rejected
type txn_report = { name : Names.t; outcome : outcome }

let replay s0 history = List.fold_left (fun s bt -> Interp.apply s bt.program) s0 history

type history = base_txn Precedence.Index.t

let index_history =
  Precedence.Index.of_list ~summary:(fun bt -> Summary.of_record ~kind:Summary.Base bt.record)

type splice = { first : int; tail : base_txn Precedence.Index.placed list }

let merged_history h sp = Precedence.Index.spliced h ~first:sp.first sp.tail

type merge_config = {
  theory : Semantics.theory;
  algorithm : Rewrite.algorithm;
  strategy : Backout.strategy;
  fix_mode : Rewrite.fix_mode;
  prefer_compensation : bool;
  acceptance : acceptance;
  capture_provenance : bool;
}

let default_merge_config =
  {
    theory = Semantics.default_theory;
    algorithm = Rewrite.Can_follow_precede;
    strategy = Backout.Two_cycle_then_greedy;
    fix_mode = Rewrite.Exact;
    prefer_compensation = true;
    acceptance = accept_always;
    capture_provenance = false;
  }

type merge_report = {
  bad : Names.Set.t;
  affected : Names.Set.t;
  saved : Names.Set.t;
  backed_out : Names.Set.t;
  txns : txn_report list;
  splice : splice;
  rewrite : Rewrite.result;
  pruned_by_compensation : bool;
  cost : Cost.tally;
}

type reprocess_report = {
  txns : txn_report list;
  appended : base_txn list;
  cost : Cost.tally;
}

(* Syntactic statement count: the cost model's code-size proxy. *)
let rec stmt_count stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Stmt.Read _ | Stmt.Update _ | Stmt.Assign _ -> acc + 1
      | Stmt.If (_, ss1, ss2) -> acc + 1 + stmt_count ss1 + stmt_count ss2)
    0 stmts

let reexecute_one ~durably ~acceptance ~params ~base ~tentative_exec ~cost
    (program : Program.t) =
  let name = program.Program.name in
  (* Ship code and arguments, transform, re-execute with full query
     processing, one force per transaction (none when the surrounding
     session commit group forces once for the whole batch). *)
  let stmts = float_of_int (stmt_count program.Program.body) in
  cost.Cost.communication <-
    cost.Cost.communication
    +. (params.Cost.comm_per_unit
       *. ((params.Cost.code_units_per_stmt *. stmts)
          +. float_of_int (List.length program.Program.params)));
  cost.Cost.base_cpu <-
    cost.Cost.base_cpu +. params.Cost.parse_per_txn
    +. (params.Cost.exec_per_stmt *. stmts)
    +. params.Cost.cc_per_txn;
  let replayed = Interp.run (Engine.state base) program in
  let original = History.record_of tentative_exec name in
  if acceptance ~original ~replayed then begin
    Engine.commit ~durably base replayed;
    if durably then cost.Cost.base_io <- cost.Cost.base_io +. params.Cost.io_per_force;
    ({ name; outcome = Reexecuted }, Some { program; record = replayed })
  end
  else ({ name; outcome = Rejected }, None)

let reexecute_backed_out ~durably ~acceptance ~params ~base ~tentative_exec ~cost programs =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"protocol.reexecute" @@ fun () ->
  List.map (reexecute_one ~durably ~acceptance ~params ~base ~tentative_exec ~cost) programs

let outcome_name = function
  | Merged -> "merged"
  | Reexecuted -> "reexecuted"
  | Rejected -> "rejected"

let count_outcomes txns =
  List.iter
    (fun (t : txn_report) ->
      (match t.outcome with
      | Merged -> Obs.Counter.incr obs_txn_merged
      | Reexecuted -> Obs.Counter.incr obs_txn_reexecuted
      | Rejected -> Obs.Counter.incr obs_txn_rejected);
      if Obs.Event.capturing () then
        Obs.Event.emit
          ~attrs:
            [ ("txn", Obs.Event.Str t.name); ("outcome", Obs.Event.Str (outcome_name t.outcome)) ]
          "txn.outcome")
    txns

(* The merge exchange, decomposed along its message boundaries
   (Section 2.1 / docs/FAULTS.md). [merge] below composes the four phases
   back into the original atomic protocol; the fault-injection session
   layer (Repro_fault.Session) runs each phase at the endpoint that owns
   it, with the wire in between. *)

type graph_phase = {
  gp_tentative_exec : History.execution;
  gp_pg : Precedence.t;
  gp_bad : Names.Set.t;
}

let analyze_graph ~strategy ~params ~cost ~base_history ~origin ~tentative =
  let tentative_exec = History.execute origin tentative in
  let tent_summaries = Summary.of_execution ~kind:Summary.Tentative tentative_exec in
  let pg = Precedence.build ~tentative:tent_summaries ~base:base_history in
  (* Step 1: ship read/write sets and G(H_m); build G(H_m, H_b). *)
  let rwset_units =
    List.fold_left
      (fun acc (s : Summary.t) ->
        acc + Item.Set.cardinal s.Summary.readset + Item.Set.cardinal s.Summary.writeset)
      0 tent_summaries
  in
  let m = Precedence.tentative_count pg in
  let intra_tentative_edges = ref 0 in
  for u = 0 to m - 1 do
    List.iter (fun v -> if v < m then incr intra_tentative_edges) (Precedence.successors pg u)
  done;
  cost.Cost.communication <-
    cost.Cost.communication
    +. (params.Cost.comm_per_unit *. float_of_int (rwset_units + !intra_tentative_edges));
  cost.Cost.base_cpu <-
    cost.Cost.base_cpu
    +. (params.Cost.graph_per_edge *. float_of_int (Precedence.edge_count pg));
  (* Step 2: compute B. *)
  let bad =
    if Precedence.is_acyclic pg then Names.Set.empty
    else begin
      cost.Cost.base_cpu <-
        cost.Cost.base_cpu
        +. (params.Cost.backout_per_node *. float_of_int (Precedence.node_count pg));
      Backout.compute ~strategy pg
    end
  in
  cost.Cost.communication <-
    cost.Cost.communication +. (params.Cost.comm_per_unit *. float_of_int (Names.Set.cardinal bad));
  { gp_tentative_exec = tentative_exec; gp_pg = pg; gp_bad = bad }

type rewrite_phase = {
  rp_rewrite : Rewrite.result;
  rp_pruned_state : State.t;
  rp_pruned_by_compensation : bool;
  rp_backed_out : Names.Set.t;
}

let rewrite_local ~config ~params ~cost ~tentative_exec ~bad =
  (* Steps 3-4: rewrite and prune on the mobile. *)
  let rw =
    Rewrite.run_execution ~theory:config.theory ~fix_mode:config.fix_mode
      ~capture:config.capture_provenance config.algorithm tentative_exec ~bad
  in
  cost.Cost.mobile_cpu <-
    cost.Cost.mobile_cpu +. (params.Cost.rewrite_per_check *. float_of_int rw.Rewrite.pair_checks);
  let pruned_state, pruned_by_compensation, prune_actions, ura_stmts =
    if config.prefer_compensation then
      match Prune.compensate rw with
      | Ok o -> (o.Prune.final, true, o.Prune.compensators_run, 0)
      | Error _ ->
        let o = Prune.undo rw in
        (o.Prune.final, false, o.Prune.items_restored + o.Prune.uras_run, o.Prune.ura_updates)
    else
      let o = Prune.undo rw in
      (o.Prune.final, false, o.Prune.items_restored + o.Prune.uras_run, o.Prune.ura_updates)
  in
  cost.Cost.mobile_cpu <-
    cost.Cost.mobile_cpu
    +. (params.Cost.prune_per_action *. float_of_int prune_actions)
    +. (params.Cost.mobile_exec_per_stmt *. float_of_int ura_stmts);
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Mobile
      ~attrs:
        [
          ( "method",
            Obs.Event.Str (if pruned_by_compensation then "compensation" else "undo-repair") );
          ("actions", Obs.Event.Int prune_actions);
        ]
      "prune.done";
  {
    rp_rewrite = rw;
    rp_pruned_state = pruned_state;
    rp_pruned_by_compensation = pruned_by_compensation;
    rp_backed_out =
      Names.Set.diff (History.name_set tentative_exec.History.history) rw.Rewrite.saved;
  }

type plan = {
  pl_splice : splice;
  pl_forwarded_items : Item.Set.t;
  pl_backed_out_programs : Program.t list;
}

let plan_commit ~graph:g ~rewrite:r ~base_history ~tentative =
  (* The merged serial order over base ∪ repaired, as a splice. *)
  let pg = g.gp_pg in
  let m = Precedence.tentative_count pg in
  let first, order =
    match Precedence.merge_order pg ~removed:r.rp_backed_out with
    | Some splice -> splice
    | None -> invalid_arg "merge order: graph is cyclic"
  in
  (* Payloads for the tail alone, newest first: a base node is the
     history's transaction at its position, a saved tentative its
     program and the record of the execution the graph was built from
     (tentative node [i] is its [i]th record). *)
  let records = Array.of_list g.gp_tentative_exec.History.records in
  let rev_tail =
    List.rev_map
      (fun v ->
        if v >= m then
          let p = v - m in
          (Precedence.Index.Moved p, (Precedence.Index.get base_history p).record)
        else
          let record = records.(v) in
          (Precedence.Index.Added { program = record.Interp.program; record }, record))
      order
  in
  (* Step 5: forward final values of the repaired history's writes — but
     only for items whose last writer in the merged serial order is
     tentative. A base transaction's blind write may legitimately follow a
     repaired tentative write (edge Tm -> Tb only); overwriting it would
     lose a committed base update. With no blind writes the restriction is
     vacuous: any write-write overlap forms a two-cycle and is backed
     out. The saved tentatives are the tail's, so every forwarded item's
     last writer is in the tail too: the scan below meets it walking the
     tail's write lists from the end. *)
  let add_writes acc (record : Interp.record) =
    List.fold_left (fun acc (x, _, _) -> Item.Set.add x acc) acc record.Interp.writes
  in
  let forwarded =
    List.fold_left
      (fun acc (placed, record) ->
        match placed with Precedence.Index.Added _ -> add_writes acc record | Moved _ -> acc)
      Item.Set.empty rev_tail
  in
  let rec last_writers forwarded pending = function
    | (placed, (record : Interp.record)) :: earlier when not (Item.Set.is_empty pending) ->
      let forwarded, pending =
        List.fold_left
          (fun ((forwarded, pending) as acc) (x, _, _) ->
            if not (Item.Set.mem x pending) then acc
            else
              ( (match placed with
                | Precedence.Index.Added _ -> forwarded
                | Moved _ -> Item.Set.remove x forwarded),
                Item.Set.remove x pending ))
          (forwarded, pending) record.Interp.writes
      in
      last_writers forwarded pending earlier
    | _ -> forwarded
  in
  let backed_out_programs =
    if Names.Set.is_empty r.rp_backed_out then []
    else
      List.filter
        (fun (p : Program.t) -> Names.Set.mem p.Program.name r.rp_backed_out)
        (History.programs tentative)
  in
  {
    pl_splice = { first; tail = List.rev_map fst rev_tail };
    pl_forwarded_items = last_writers forwarded forwarded rev_tail;
    pl_backed_out_programs = backed_out_programs;
  }

let record_merge_metrics (report : merge_report) =
  Obs.Counter.incr obs_merges;
  count_outcomes report.txns;
  Obs.Dist.observe obs_merge_cost (Cost.total report.cost)

let commit ?(durably = true) ~config ~params ~cost ~base ~base_history ~tentative g r =
  let rw = r.rp_rewrite in
  let plan = plan_commit ~graph:g ~rewrite:r ~base_history ~tentative in
  (* Step 5: forward the repaired history's final values, one transaction. *)
  let forwarded_items = plan.pl_forwarded_items in
  cost.Cost.communication <-
    cost.Cost.communication
    +. (params.Cost.comm_per_unit *. float_of_int (Item.Set.cardinal forwarded_items));
  Obs.Dist.observe_int obs_forwarded (Item.Set.cardinal forwarded_items);
  if not (Item.Set.is_empty forwarded_items) then begin
    Obs.Span.with_ ~lane:Obs.Event.Base ~name:"protocol.forward" (fun () ->
        Engine.apply_updates ~durably base r.rp_pruned_state forwarded_items);
    cost.Cost.base_cpu <- cost.Cost.base_cpu +. params.Cost.cc_per_txn;
    if durably then cost.Cost.base_io <- cost.Cost.base_io +. params.Cost.io_per_force
  end;
  (* Step 6: re-execute the backed-out tentative transactions. *)
  let reexec_results =
    reexecute_backed_out ~durably ~acceptance:config.acceptance ~params ~base
      ~tentative_exec:g.gp_tentative_exec ~cost plan.pl_backed_out_programs
  in
  {
    bad = g.gp_bad;
    affected = rw.Rewrite.affected;
    saved = rw.Rewrite.saved;
    backed_out = r.rp_backed_out;
    txns =
      List.map (fun name -> { name; outcome = Merged }) (Names.Set.elements rw.Rewrite.saved)
      @ List.map fst reexec_results;
    splice =
      (match List.filter_map snd reexec_results with
      | [] -> plan.pl_splice
      | accepted ->
        {
          plan.pl_splice with
          tail =
            plan.pl_splice.tail @ List.map (fun bt -> Precedence.Index.Added bt) accepted;
        });
    rewrite = rw;
    pruned_by_compensation = r.rp_pruned_by_compensation;
    cost;
  }

let merge ~config ~params ~base ~base_history ~origin ~tentative =
  Obs.Span.with_ ~name:"protocol.merge" @@ fun () ->
  let cost = Cost.zero () in
  let g = analyze_graph ~strategy:config.strategy ~params ~cost ~base_history ~origin ~tentative in
  let r =
    rewrite_local ~config ~params ~cost ~tentative_exec:g.gp_tentative_exec ~bad:g.gp_bad
  in
  let report = commit ~config ~params ~cost ~base ~base_history ~tentative g r in
  record_merge_metrics report;
  report

let reprocess ~acceptance ~params ~base ~origin ~tentative =
  Obs.Span.with_ ~name:"protocol.reprocess" @@ fun () ->
  let cost = Cost.zero () in
  let tentative_exec = History.execute origin tentative in
  let results =
    reexecute_backed_out ~durably:true ~acceptance ~params ~base ~tentative_exec ~cost
      (History.programs tentative)
  in
  Obs.Counter.incr obs_reprocess_sessions;
  let txns = List.map fst results in
  count_outcomes txns;
  Obs.Dist.observe obs_reprocess_cost (Cost.total cost);
  { txns; appended = List.filter_map snd results; cost }
