(* Per-layer figures read from the Obs registry: inclusive span seconds
   and counters that the library layers already record. Layers a
   workload does not reach read 0. *)

module Report = Repro_obs.Report

let find_span (r : Report.t) name =
  List.find_opt (fun (s : Report.span) -> s.Report.s_name = name) r.Report.spans

let span r name = match find_span r name with Some s -> s.Report.total_s | None -> 0.0

(* Mean milliseconds per completion of span [name]. *)
let mean_ms r name =
  match find_span r name with
  | Some s when s.Report.entered > 0 -> s.Report.total_s *. 1000.0 /. float_of_int s.Report.entered
  | _ -> 0.0

let counter (r : Report.t) name =
  match List.find_opt (fun (c : Report.counter) -> c.Report.c_name = name) r.Report.counters with
  | Some c -> c.Report.value
  | None -> 0

let of_snapshot r =
  let s = span r and c name = float_of_int (counter r name) in
  let merged = counter r "protocol.txn_merged"
  and reexecuted = counter r "protocol.txn_reexecuted"
  and rejected = counter r "protocol.txn_rejected" in
  let fast = counter r "multibase.commit_fast" and reanchor = counter r "multibase.commit_reanchor" in
  [
    ("precedence.build_s", s "precedence.build");
    ("precedence.incremental_updates", c "precedence.incremental_updates");
    ("precedence.cyclic_graphs", c "precedence.cyclic_graphs");
    ("backout.compute_s", s "backout.compute");
    ("backout.computed", c "backout.computed");
    ("rewrite.run_s", s "rewrite.run");
    ("rewrite.pair_checks", c "rewrite.pair_checks");
    ("rewrite.moves", c "rewrite.moves");
    ("prune.compensate_s", s "prune.compensate");
    ("prune.undo_s", s "prune.undo");
    ("prune.compensators_run", c "prune.compensators_run");
    ("protocol.merge_s", s "protocol.merge");
    ("protocol.reprocess_s", s "protocol.reprocess");
    ("protocol.reexecute_s", s "protocol.reexecute");
    ("protocol.txn_merged", float_of_int merged);
    ("protocol.txn_reexecuted", float_of_int reexecuted);
    ("protocol.saved_frac", Stats.ratio_i merged (merged + reexecuted + rejected));
    ("db.wal_forces", c "db.wal_forces");
    ("db.wal_records", c "db.wal_records");
    ("db.group_commit.coalesced", c "db.group_commit.coalesced");
    ("db.txns_committed", c "db.txns_committed");
    ("db.forces_per_txn", Stats.ratio_i (counter r "db.wal_forces") (counter r "db.txns_committed"));
    ("fault.session_s", s "fault.session");
    ( "fault.overhead_s",
      if s "fault.session" = 0.0 then 0.0 else s "fault.session" -. s "protocol.merge" );
    ("fault.retries", c "fault.retries");
    ("fault.net_sent", c "fault.net_sent");
    ("fault.net_dropped", c "fault.net_dropped");
    ("multibase.exchange_s", s "multibase.exchange");
    ("multibase.integrate_s", s "multibase.integrate");
    ("multibase.commit_s", s "multibase.commit");
    ("multibase.commit_fast_frac", Stats.ratio_i fast (fast + reanchor));
  ]
